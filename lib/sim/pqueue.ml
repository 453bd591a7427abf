(* Hierarchical timing wheel with a far-future overflow heap.

   The engine's event queue orders (time, seq) keys lexicographically.  A
   binary heap pays O(log n) comparisons per operation on the full pending
   set; the wheel exploits the engine's access pattern — pops are monotone
   in time, pushes land at or after the last popped instant — to bucket
   events by a coarse virtual-time tick and only ever sort one bucket at a
   time.

   Geometry.  A tick is [floor (time * inv_g)] with granularity [g]
   (default 0.5 ms; the mapping is monotone, so bucket placement can never
   reorder keys).  Ticks are grouped 256 to a group:

   - level 0: 256 buckets, one per tick of the current group;
   - level 1: 64 buckets, one per group, covering the next 64 groups
     (a ~8 s horizon at the default granularity);
   - beyond the horizon: an overflow min-heap on the exact (time, seq) key.

   When the cursor reaches a tick, its bucket is drained into the "run" —
   an array sorted by the exact (time, seq) key.  Only bucket *placement*
   uses the coarse tick; ordering inside a tick is exact, so a drain of the
   whole queue is bit-identical to the reference heap's.  Same-instant
   cascades (pushes at the tick being executed) binary-search into the
   live run; pushes below the run's tick — possible after a peek advanced
   the cursor — insert the same way, which keeps the run the single staging
   area for everything at or before the cursor.  Entries live in a pooled
   struct-of-arrays arena with intrusive bucket chains, so the steady-state
   loop allocates nothing per event.

   Contract (the engine guarantees both; violations raise): times are
   non-negative, and a push never predates the last popped time.

   The replaced binary heap lives on in test/pqueue_reference.ml; the
   differential fuzz in test_sim drives both through random interleavings
   and demands identical pop streams. *)

let n0 = 256 (* level-0 buckets: ticks per group *)

let l0_mask = n0 - 1

let g_shift = 8 (* log2 n0 *)

let n1 = 64 (* level-1 buckets: groups on the wheel horizon *)

let l1_mask = n1 - 1

type t = {
  inv_g : float; (* 1 / granularity_ms *)
  (* entry arena: key, payload and intrusive chain links *)
  mutable etime : float array;
  mutable eseq : int array;
  mutable evalue : int array;
  mutable enext : int array; (* bucket chain or freelist, -1 ends *)
  mutable efree : int;
  mutable ecap : int;
  mutable size : int;
  l0 : int array; (* chain heads for the current group's ticks *)
  l1 : int array; (* chain heads per group on the horizon *)
  mutable grp0 : int; (* current group number *)
  mutable heap : int array; (* overflow: entry indices, (time, seq)-keyed *)
  mutable hsize : int;
  mutable run : int array; (* current bucket, sorted by exact key *)
  mutable rpos : int;
  mutable rlen : int;
  mutable rtick : int; (* tick of the current run; -1 before the first *)
  mutable ptime : float; (* key of the last popped entry *)
  mutable pseq : int;
}

let create ?(granularity_ms = 0.5) () =
  if not (granularity_ms > 0.0) then
    invalid_arg "Pqueue.create: granularity_ms must be positive";
  { inv_g = 1.0 /. granularity_ms; etime = [||]; eseq = [||]; evalue = [||];
    enext = [||]; efree = -1; ecap = 0; size = 0;
    l0 = Array.make n0 (-1); l1 = Array.make n1 (-1); grp0 = 0;
    heap = [||]; hsize = 0; run = [||]; rpos = 0; rlen = 0; rtick = -1;
    ptime = neg_infinity; pseq = 0 }

let is_empty q = q.size = 0

let length q = q.size

let tick q time = int_of_float (time *. q.inv_g)

(* ------------------------------ arena ------------------------------ *)

let grow_arena q =
  let cap = max 64 (2 * q.ecap) in
  let etime = Array.make cap 0.0
  and eseq = Array.make cap 0
  and evalue = Array.make cap 0
  and enext = Array.make cap (-1) in
  Array.blit q.etime 0 etime 0 q.ecap;
  Array.blit q.eseq 0 eseq 0 q.ecap;
  Array.blit q.evalue 0 evalue 0 q.ecap;
  Array.blit q.enext 0 enext 0 q.ecap;
  for i = q.ecap to cap - 2 do
    enext.(i) <- i + 1
  done;
  enext.(cap - 1) <- -1;
  q.efree <- q.ecap;
  q.etime <- etime;
  q.eseq <- eseq;
  q.evalue <- evalue;
  q.enext <- enext;
  q.ecap <- cap

let alloc q ~time ~seq value =
  if q.efree < 0 then grow_arena q;
  let e = q.efree in
  q.efree <- q.enext.(e);
  q.etime.(e) <- time;
  q.eseq.(e) <- seq;
  q.evalue.(e) <- value;
  e

let release q e =
  q.enext.(e) <- q.efree;
  q.efree <- e

let key_less q a b =
  q.etime.(a) < q.etime.(b)
  || (q.etime.(a) = q.etime.(b) && q.eseq.(a) < q.eseq.(b))

(* --------------------------- overflow heap -------------------------- *)

let hpush q e =
  if q.hsize = Array.length q.heap then begin
    let heap = Array.make (max 64 (2 * q.hsize)) 0 in
    Array.blit q.heap 0 heap 0 q.hsize;
    q.heap <- heap
  end;
  q.heap.(q.hsize) <- e;
  q.hsize <- q.hsize + 1;
  let i = ref (q.hsize - 1) in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    key_less q q.heap.(!i) q.heap.(p)
  do
    let p = (!i - 1) / 2 in
    let tmp = q.heap.(!i) in
    q.heap.(!i) <- q.heap.(p);
    q.heap.(p) <- tmp;
    i := p
  done

let hpop q =
  let top = q.heap.(0) in
  q.hsize <- q.hsize - 1;
  if q.hsize > 0 then begin
    q.heap.(0) <- q.heap.(q.hsize);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < q.hsize && key_less q q.heap.(l) q.heap.(!m) then m := l;
      if r < q.hsize && key_less q q.heap.(r) q.heap.(!m) then m := r;
      if !m = !i then continue := false
      else begin
        let tmp = q.heap.(!i) in
        q.heap.(!i) <- q.heap.(!m);
        q.heap.(!m) <- tmp;
        i := !m
      end
    done
  end;
  top

(* ------------------------------- run -------------------------------- *)

let ensure_run_cap q n =
  if n > Array.length q.run then begin
    let run = Array.make (max 64 (2 * n)) 0 in
    Array.blit q.run 0 run 0 q.rlen;
    q.run <- run
  end

(* In-place heapsort of run[0..rlen) by the exact (time, seq) key: no
   allocation, and the keys are unique (the engine's seq is), so stability
   is moot. *)
let sort_run q =
  let n = q.rlen in
  let swap i j =
    let tmp = q.run.(i) in
    q.run.(i) <- q.run.(j);
    q.run.(j) <- tmp
  in
  let rec sift i len =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = ref i in
    if l < len && key_less q q.run.(!m) q.run.(l) then m := l;
    if r < len && key_less q q.run.(!m) q.run.(r) then m := r;
    if !m <> i then begin
      swap i !m;
      sift !m len
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    swap 0 last;
    sift 0 last
  done

let build_run q tk =
  let b = tk land l0_mask in
  q.rpos <- 0;
  q.rlen <- 0;
  let e = ref q.l0.(b) in
  while !e >= 0 do
    ensure_run_cap q (q.rlen + 1);
    q.run.(q.rlen) <- !e;
    q.rlen <- q.rlen + 1;
    e := q.enext.(!e)
  done;
  q.l0.(b) <- -1;
  sort_run q;
  q.rtick <- tk

(* Insert into the live (already sorted) suffix of the run: first position
   whose key exceeds the new entry's.  A same-instant cascade carries the
   globally largest seq, so it lands after every equal-time entry — exactly
   the canonical order; an explorer re-queue carries its original seq and
   lands back in its canonical slot. *)
let run_insert q e =
  ensure_run_cap q (q.rlen + 1);
  let lo = ref q.rpos and hi = ref q.rlen in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key_less q e q.run.(mid) then hi := mid else lo := mid + 1
  done;
  Array.blit q.run !lo q.run (!lo + 1) (q.rlen - !lo);
  q.run.(!lo) <- e;
  q.rlen <- q.rlen + 1

(* ------------------------------- push ------------------------------- *)

let push q ~time ~seq value =
  if value < 0 then invalid_arg "Pqueue.push: payload must be >= 0";
  if not (time >= 0.0) then
    invalid_arg "Pqueue.push: time must be non-negative";
  if time < q.ptime then
    invalid_arg
      (Printf.sprintf "Pqueue.push: time %g predates the last pop %g" time
         q.ptime);
  let e = alloc q ~time ~seq value in
  let tk = tick q time in
  if tk <= q.rtick then run_insert q e
  else begin
    let d = (tk lsr g_shift) - q.grp0 in
    if d = 0 then begin
      let b = tk land l0_mask in
      q.enext.(e) <- q.l0.(b);
      q.l0.(b) <- e
    end
    else if d <= n1 then begin
      let b = (tk lsr g_shift) land l1_mask in
      q.enext.(e) <- q.l1.(b);
      q.l1.(b) <- e
    end
    else hpush q e
  end;
  q.size <- q.size + 1

(* ----------------------------- advance ------------------------------ *)

(* Enter the next non-empty group: the nearer of the first occupied
   level-1 bucket on the horizon and the overflow heap's top.  The chosen
   group's level-1 chain is dealt onto level 0, and every overflow entry of
   that group is pulled up with it — the heap may hold keys below the
   level-1 horizon after the cursor has jumped far ahead, so it competes as
   a full candidate rather than backfilling eagerly. *)
let advance_group q =
  let gheap =
    if q.hsize > 0 then tick q q.etime.(q.heap.(0)) lsr g_shift else max_int
  in
  let g1 = ref max_int in
  let d = ref 1 in
  while !g1 = max_int && !d <= n1 do
    let grp = q.grp0 + !d in
    if q.l1.(grp land l1_mask) >= 0 then g1 := grp else incr d
  done;
  let gnext = min !g1 gheap in
  if gnext = max_int then invalid_arg "Pqueue: inconsistent occupancy";
  q.grp0 <- gnext;
  if gnext = !g1 then begin
    let b = gnext land l1_mask in
    let e = ref q.l1.(b) in
    q.l1.(b) <- -1;
    while !e >= 0 do
      let nx = q.enext.(!e) in
      let i = tick q q.etime.(!e) land l0_mask in
      q.enext.(!e) <- q.l0.(i);
      q.l0.(i) <- !e;
      e := nx
    done
  end;
  while q.hsize > 0 && tick q q.etime.(q.heap.(0)) lsr g_shift = gnext do
    let e = hpop q in
    let i = tick q q.etime.(e) land l0_mask in
    q.enext.(e) <- q.l0.(i);
    q.l0.(i) <- e
  done

(* Make the run hold the queue's minimum, advancing the cursor as needed.
   Returns false iff the queue is empty. *)
let rec ensure_run q =
  if q.rpos < q.rlen then true
  else if q.size = 0 then false
  else begin
    let lo =
      let r = q.rtick + 1 - (q.grp0 lsl g_shift) in
      if r < 0 then 0 else r
    in
    let found = ref (-1) in
    let i = ref lo in
    while !found < 0 && !i < n0 do
      if q.l0.(!i) >= 0 then found := !i else incr i
    done;
    match !found with
    | -1 ->
      advance_group q;
      ensure_run q
    | b ->
      build_run q ((q.grp0 lsl g_shift) lor b);
      true
  end

(* ---------------------------- pop / peek ---------------------------- *)

let pop_raw q =
  if not (ensure_run q) then -1
  else begin
    let e = q.run.(q.rpos) in
    q.rpos <- q.rpos + 1;
    q.size <- q.size - 1;
    q.ptime <- q.etime.(e);
    q.pseq <- q.eseq.(e);
    let v = q.evalue.(e) in
    release q e;
    v
  end

let popped_time q = q.ptime

let popped_seq q = q.pseq

let peek_time q =
  if ensure_run q then q.etime.(q.run.(q.rpos)) else infinity

let peek q =
  if ensure_run q then
    let e = q.run.(q.rpos) in
    Some (q.etime.(e), q.eseq.(e), q.evalue.(e))
  else None

let pop q =
  if ensure_run q then begin
    let e = q.run.(q.rpos) in
    let key = (q.etime.(e), q.eseq.(e), q.evalue.(e)) in
    ignore (pop_raw q);
    Some key
  end
  else None

let clear q =
  q.size <- 0;
  q.hsize <- 0;
  q.rpos <- 0;
  q.rlen <- 0;
  q.rtick <- -1;
  q.grp0 <- 0;
  q.ptime <- neg_infinity;
  q.pseq <- 0;
  Array.fill q.l0 0 n0 (-1);
  Array.fill q.l1 0 n1 (-1);
  for i = 0 to q.ecap - 2 do
    q.enext.(i) <- i + 1
  done;
  if q.ecap > 0 then begin
    q.enext.(q.ecap - 1) <- -1;
    q.efree <- 0
  end
