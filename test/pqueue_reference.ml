(* The binary min-heap the engine's timing wheel ({!Detmt_sim.Pqueue})
   replaced, kept as the differential-fuzz oracle in test_sim: polymorphic
   payloads, no push contract.  Slots are [option]s so that [pop] and
   [clear] really drop their payloads: the old array-of-entries
   representation left the popped entry (and the closure it carried)
   reachable in [data.(size)] forever. *)

type 'a entry = { time : float; seq : int; value : 'a }

type 'a t = { mutable data : 'a entry option array; mutable size : int }

let create () = { data = [||]; size = 0 }

let is_empty q = q.size = 0

let length q = q.size

let entry q i =
  match q.data.(i) with
  | Some e -> e
  | None -> invalid_arg "Pqueue_reference: vacant slot"

let less q i j =
  let a = entry q i and b = entry q j in
  a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow q =
  let cap = max 16 (2 * Array.length q.data) in
  let data = Array.make cap None in
  Array.blit q.data 0 data 0 q.size;
  q.data <- data

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less q i parent then begin
      let tmp = q.data.(i) in
      q.data.(i) <- q.data.(parent);
      q.data.(parent) <- tmp;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.size && less q l !smallest then smallest := l;
  if r < q.size && less q r !smallest then smallest := r;
  if !smallest <> i then begin
    let tmp = q.data.(i) in
    q.data.(i) <- q.data.(!smallest);
    q.data.(!smallest) <- tmp;
    sift_down q !smallest
  end

let push q ~time ~seq value =
  if q.size = Array.length q.data then grow q;
  q.data.(q.size) <- Some { time; seq; value };
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let pop q =
  if q.size = 0 then None
  else begin
    let top = entry q 0 in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.data.(0) <- q.data.(q.size);
      (* The vacated slot must not pin the moved entry (or, before this
         fix, the popped one) against collection. *)
      q.data.(q.size) <- None;
      sift_down q 0
    end
    else q.data.(0) <- None;
    Some (top.time, top.seq, top.value)
  end

let peek q =
  if q.size = 0 then None
  else
    let top = entry q 0 in
    Some (top.time, top.seq, top.value)

let clear q =
  Array.fill q.data 0 q.size None;
  q.size <- 0
