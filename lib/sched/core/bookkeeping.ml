open Detmt_analysis

type entry_state = Pending | Announced of int | Passed | Ignored

(* The future lock set as a multiset: each mutex with its number of
   [Announced] entries, ascending by mutex.  Per-thread future sets hold a
   handful of mutexes, so a sorted list costs less than a hash table plus a
   set, and it can be walked without allocating. *)
type future = Nil | Cons of { mutex : int; mutable n : int; next : future }

let rec future_add m = function
  | Cons c when c.mutex = m ->
    c.n <- c.n + 1;
    Cons c
  | Cons c when c.mutex < m -> Cons { c with next = future_add m c.next }
  | l -> Cons { mutex = m; n = 1; next = l }

let rec future_remove m = function
  | Cons c when c.mutex = m ->
    if c.n > 1 then begin
      c.n <- c.n - 1;
      Cons c
    end
    else c.next
  | Cons c when c.mutex < m -> Cons { c with next = future_remove m c.next }
  | l -> l

let rec future_mem m = function
  | Cons c -> c.mutex = m || (c.mutex < m && future_mem m c.next)
  | Nil -> false

let rec future_iter f = function
  | Cons c ->
    f c.mutex;
    future_iter f c.next
  | Nil -> ()

(* Per-method registration data, resolved once per method name and shared
   by every thread running that method. *)
type meth = {
  ms : Predict.method_summary;
  sids : (int, sid_slot) Hashtbl.t; (* sid -> its slot in [entries], info *)
  lidx : (int, Predict.loop_info) Hashtbl.t; (* lid -> info *)
}

and sid_slot = { slot : int; info : Predict.sid_info }

type table = {
  m : meth;
  entries : entry_state array; (* indexed by [sid_slot.slot] *)
  mutable active_loops : int list; (* innermost first *)
  mutable exited_loops : int list;
  (* Incrementally maintained views of [entries], so the hot decision-module
     queries ([predicted], [future_may_lock]) cost O(1) or O(size of the
     future set) instead of a full fold per call (pMAT's rescan issues
     O(n²) of them per event). *)
  mutable pending_left : int; (* # entries still [Pending] *)
  mutable future : future; (* mutexes with [Announced _] entries *)
  mutable predicted_cache : int;
      (* memoised [predicted_tab]: -1 unknown, 0 false, 1 true.  The
         predicate only reads [active_loops], [exited_loops] and
         [pending_left], so the three mutation points below reset it;
         decision modules may probe it many times per grant. *)
}

type thread_info =
  | Pessimistic (* no summary, or fallback method: everything unknown *)
  | Tracked of table

type t = {
  summary : Predict.class_summary option;
  threads : (int, thread_info) Hashtbl.t;
  mcache : (string, meth option) Hashtbl.t;
      (* method name -> resolved summary + sid/loop indexes, [None] when
         pessimistic (no summary, unknown method, or fallback);
         [find_method] is a list scan, so without the cache every
         registration pays it *)
}

let create ~summary () =
  { summary; threads = Hashtbl.create 64; mcache = Hashtbl.create 16 }

let resolve t meth =
  match Hashtbl.find_opt t.mcache meth with
  | Some r -> r
  | None ->
    let r =
      match t.summary with
      | None -> None
      | Some cs -> (
        match Predict.find_method cs meth with
        | None -> None
        | Some ms when ms.fallback -> None
        | Some ms ->
          let sids = Hashtbl.create 16 and lidx = Hashtbl.create 8 in
          List.iter
            (fun (info : Predict.sid_info) ->
              let slot =
                match Hashtbl.find_opt sids info.sid with
                | Some s -> s.slot
                | None -> Hashtbl.length sids
              in
              Hashtbl.replace sids info.sid { slot; info })
            ms.sids;
          List.iter
            (fun (l : Predict.loop_info) -> Hashtbl.replace lidx l.lid l)
            ms.loops;
          Some { ms; sids; lidx })
    in
    Hashtbl.replace t.mcache meth r;
    r

let register t ~tid ~meth =
  let info =
    match resolve t meth with
    | None -> Pessimistic
    | Some m ->
      Tracked
        { m; entries = Array.make (Hashtbl.length m.sids) Pending;
          active_loops = []; exited_loops = [];
          pending_left = List.length m.ms.sids; future = Nil;
          predicted_cache = -1 }
  in
  Hashtbl.replace t.threads tid info

let release t ~tid = Hashtbl.remove t.threads tid

let tracked t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some (Tracked tab) -> Some tab
  | Some Pessimistic | None -> None

(* The slot of [sid] in [tab.entries], or -1 for a sid outside the method's
   table (a helper-method sid inside an opaque region). *)
let slot_of tab sid =
  match Hashtbl.find tab.m.sids sid with
  | s -> s.slot
  | exception Not_found -> -1

(* The single mutation point: updates the pending counter and the future
   multiset along with the entry itself. *)
let set_slot tab slot state =
  let old = tab.entries.(slot) in
  tab.predicted_cache <- -1;
  (match old with
  | Pending -> (
    match state with
    | Pending -> ()
    | Announced _ | Passed | Ignored ->
      tab.pending_left <- tab.pending_left - 1)
  | Announced m -> tab.future <- future_remove m tab.future
  | Passed | Ignored -> ());
  (match state with
  | Announced m -> tab.future <- future_add m tab.future
  | Pending | Passed | Ignored -> ());
  tab.entries.(slot) <- state

let on_lockinfo t ~tid ~syncid ~mutex =
  match tracked t tid with
  | None -> ()
  | Some tab -> (
    (* An already-resolved entry is never un-resolved by a late
       announcement (can only happen with unsound instrumentation). *)
    let slot = slot_of tab syncid in
    if slot >= 0 then
      match tab.entries.(slot) with
      | Pending | Announced _ -> set_slot tab slot (Announced mutex)
      | Passed | Ignored -> ())

let on_ignore t ~tid ~syncid =
  match tracked t tid with
  | None -> ()
  | Some tab ->
    let slot = slot_of tab syncid in
    if slot >= 0 then set_slot tab slot Ignored

let loop_still_active tab (info : Predict.sid_info) =
  List.exists (fun lid -> List.mem lid tab.active_loops) info.in_loops

let on_acquired t ~tid ~syncid ~mutex =
  match tracked t tid with
  | None -> ()
  | Some tab -> (
    match Hashtbl.find_opt tab.m.sids syncid with
    | None -> () (* a helper-method sid inside an opaque region *)
    | Some { slot; info } ->
      if loop_still_active tab info then
        (* May be requested again on the next iteration: the mutex stays in
           the future set until the loop is left. *)
        set_slot tab slot (Announced mutex)
      else set_slot tab slot Passed)

let on_loop_enter t ~tid ~loopid =
  match tracked t tid with
  | None -> ()
  | Some tab ->
    tab.predicted_cache <- -1;
    tab.active_loops <- loopid :: tab.active_loops;
    tab.exited_loops <- List.filter (fun l -> l <> loopid) tab.exited_loops

let on_loop_exit t ~tid ~loopid =
  match tracked t tid with
  | None -> ()
  | Some tab ->
    tab.predicted_cache <- -1;
    (match tab.active_loops with
    | l :: rest when l = loopid -> tab.active_loops <- rest
    | _ ->
      tab.active_loops <- List.filter (fun l -> l <> loopid) tab.active_loops);
    tab.exited_loops <- loopid :: tab.exited_loops;
    (* Every sid of the scope that cannot run again (no other enclosing
       scope still active) is resolved. *)
    (match Hashtbl.find_opt tab.m.lidx loopid with
    | None -> ()
    | Some linfo ->
      List.iter
        (fun sid ->
          match Hashtbl.find_opt tab.m.sids sid with
          | Some { slot; info } when not (loop_still_active tab info) -> (
            match tab.entries.(slot) with
            | Pending | Announced _ -> set_slot tab slot Ignored
            | Passed | Ignored -> ())
          | Some _ | None -> ())
        linfo.sids)

let changing tab lid =
  match Hashtbl.find_opt tab.m.lidx lid with
  | Some l -> l.changing
  | None -> true (* unknown scope: be pessimistic *)

let predicted_tab tab =
  if tab.predicted_cache >= 0 then tab.predicted_cache = 1
  else begin
    let v =
      (* 1. no changing scope is currently active *)
      (not (List.exists (changing tab) tab.active_loops))
      (* 2. no changing scope lies ahead (neither active nor already exited) *)
      && List.for_all
           (fun (l : Predict.loop_info) ->
             (not l.changing)
             || List.mem l.lid tab.exited_loops
             || List.mem l.lid tab.active_loops (* excluded by 1 if changing *))
           tab.m.ms.loops
      (* 3. every entry is resolved — maintained incrementally by [set_slot] *)
      && tab.pending_left = 0
    in
    tab.predicted_cache <- (if v then 1 else 0);
    v
  end

let predicted t ~tid =
  match tracked t tid with None -> false | Some tab -> predicted_tab tab

(* Allocation-free (no option on the lookup, [f] is the caller's): pMAT
   calls it for every queue predecessor on every decision pass. *)
let iter_future t ~tid ~f =
  match Hashtbl.find t.threads tid with
  | Tracked tab when predicted_tab tab ->
    future_iter f tab.future;
    true
  | Tracked _ | Pessimistic -> false
  | exception Not_found -> false

let future_may_lock t ~tid ~mutex =
  match tracked t tid with
  | None -> true
  | Some tab -> if predicted_tab tab then future_mem mutex tab.future else true

let no_future_locks t ~tid =
  match tracked t tid with
  | None -> false
  | Some tab -> (
    predicted_tab tab && match tab.future with Nil -> true | Cons _ -> false)

let uses_condvars t ~tid =
  match Hashtbl.find_opt t.threads tid with
  | Some (Tracked tab) -> tab.m.ms.uses_condvars
  | Some Pessimistic | None -> true (* unknown method: assume the worst *)
