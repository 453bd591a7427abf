open Detmt_analysis
module Iset = Set.Make (Int)

type entry_state = Pending | Announced of int | Passed | Ignored

type table = {
  ms : Predict.method_summary;
  sidx : (int, Predict.sid_info) Hashtbl.t; (* sid -> info, shared per method *)
  lidx : (int, Predict.loop_info) Hashtbl.t; (* lid -> info, shared per method *)
  entries : (int, entry_state) Hashtbl.t; (* syncid -> state *)
  mutable active_loops : int list; (* innermost first *)
  mutable exited_loops : int list;
  (* Incrementally maintained views of [entries], so the hot decision-module
     queries ([predicted], [future_may_lock]) are O(1)/O(log n) instead of a
     full fold per call (pMAT's rescan issues O(n²) of them per event). *)
  mutable pending_left : int; (* # entries still [Pending] *)
  announced : (int, int) Hashtbl.t; (* mutex -> # [Announced _] entries *)
  mutable future : Iset.t; (* mutexes with announced count > 0, sorted *)
  mutable predicted_cache : int;
      (* memoised [predicted_tab]: -1 unknown, 0 false, 1 true.  The
         predicate only reads [active_loops], [exited_loops] and
         [pending_left], so the three mutation points below reset it;
         decision modules may probe it many times per grant. *)
}

(* Per-method registration data, resolved once per method name and reused by
   every thread running that method: [None] means pessimistic (no summary,
   unknown method, or fallback). *)
type minfo =
  (Predict.method_summary
  * (int, Predict.sid_info) Hashtbl.t
  * (int, Predict.loop_info) Hashtbl.t)
  option

type thread_info =
  | Pessimistic (* no summary, or fallback method: everything unknown *)
  | Tracked of table

type t = {
  summary : Predict.class_summary option;
  threads : (int, thread_info) Hashtbl.t;
  mcache : (string, minfo) Hashtbl.t;
      (* method name -> resolved summary + sid/loop indexes; [find_method]
         is a list scan, so without the cache every registration pays it *)
}

let create ~summary () =
  { summary; threads = Hashtbl.create 64; mcache = Hashtbl.create 16 }

let resolve t meth : minfo =
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
          let sidx = Hashtbl.create 16 and lidx = Hashtbl.create 8 in
          List.iter
            (fun (i : Predict.sid_info) -> Hashtbl.replace sidx i.sid i)
            ms.sids;
          List.iter
            (fun (l : Predict.loop_info) -> Hashtbl.replace lidx l.lid l)
            ms.loops;
          Some (ms, sidx, lidx))
    in
    Hashtbl.replace t.mcache meth r;
    r

let register t ~tid ~meth =
  let info =
    match resolve t meth with
    | None -> Pessimistic
    | Some (ms, sidx, lidx) ->
      let entries = Hashtbl.create 16 in
      List.iter
        (fun (i : Predict.sid_info) -> Hashtbl.replace entries i.sid Pending)
        ms.sids;
      Tracked
        { ms; sidx; lidx; entries; active_loops = []; exited_loops = [];
          pending_left = List.length ms.sids;
          announced = Hashtbl.create 16; future = Iset.empty;
          predicted_cache = -1 }
  in
  Hashtbl.replace t.threads tid info

let release t ~tid = Hashtbl.remove t.threads tid

let tracked t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some (Tracked tab) -> Some tab
  | Some Pessimistic | None -> None

(* The single mutation point: updates the pending counter and the announced
   multiset / sorted future set along with the entry itself. *)
let set_entry tab sid state =
  match Hashtbl.find_opt tab.entries sid with
  | None -> ()
  | Some old ->
    tab.predicted_cache <- -1;
    (match old with
    | Pending -> (
      match state with
      | Pending -> ()
      | Announced _ | Passed | Ignored ->
        tab.pending_left <- tab.pending_left - 1)
    | Announced m ->
      let n = Option.value ~default:0 (Hashtbl.find_opt tab.announced m) in
      if n <= 1 then begin
        Hashtbl.remove tab.announced m;
        tab.future <- Iset.remove m tab.future
      end
      else Hashtbl.replace tab.announced m (n - 1)
    | Passed | Ignored -> ());
    (match state with
    | Announced m ->
      let n = Option.value ~default:0 (Hashtbl.find_opt tab.announced m) in
      Hashtbl.replace tab.announced m (n + 1);
      tab.future <- Iset.add m tab.future
    | Pending | Passed | Ignored -> ());
    Hashtbl.replace tab.entries sid state

let on_lockinfo t ~tid ~syncid ~mutex =
  match tracked t tid with
  | None -> ()
  | Some tab -> (
    (* An already-resolved entry is never un-resolved by a late
       announcement (can only happen with unsound instrumentation). *)
    match Hashtbl.find_opt tab.entries syncid with
    | Some Pending | Some (Announced _) ->
      set_entry tab syncid (Announced mutex)
    | Some Passed | Some Ignored | None -> ())

let on_ignore t ~tid ~syncid =
  match tracked t tid with
  | None -> ()
  | Some tab -> set_entry tab syncid Ignored

let loop_still_active tab (info : Predict.sid_info) =
  List.exists (fun lid -> List.mem lid tab.active_loops) info.in_loops

let on_acquired t ~tid ~syncid ~mutex =
  match tracked t tid with
  | None -> ()
  | Some tab -> (
    match Hashtbl.find_opt tab.sidx syncid with
    | None -> () (* a helper-method sid inside an opaque region *)
    | Some info ->
      if loop_still_active tab info then
        (* May be requested again on the next iteration: the mutex stays in
           the future set until the loop is left. *)
        set_entry tab syncid (Announced mutex)
      else set_entry tab syncid Passed)

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
    (match Hashtbl.find_opt tab.lidx loopid with
    | None -> ()
    | Some linfo ->
      List.iter
        (fun sid ->
          match Hashtbl.find_opt tab.sidx sid with
          | Some info when not (loop_still_active tab info) -> (
            match Hashtbl.find_opt tab.entries sid with
            | Some Pending | Some (Announced _) -> set_entry tab sid Ignored
            | Some Passed | Some Ignored | None -> ())
          | Some _ | None -> ())
        linfo.sids)

let changing tab lid =
  match Hashtbl.find_opt tab.lidx lid with
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
           tab.ms.loops
      (* 3. every entry is resolved — maintained incrementally by [set_entry] *)
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
    Iset.iter f tab.future;
    true
  | Tracked _ | Pessimistic -> false
  | exception Not_found -> false

let future_may_lock t ~tid ~mutex =
  match tracked t tid with
  | None -> true
  | Some tab -> if predicted_tab tab then Iset.mem mutex tab.future else true

let no_future_locks t ~tid =
  match tracked t tid with
  | None -> false
  | Some tab -> predicted_tab tab && Iset.is_empty tab.future

let uses_condvars t ~tid =
  match Hashtbl.find_opt t.threads tid with
  | Some (Tracked tab) -> tab.ms.uses_condvars
  | Some Pessimistic | None -> true (* unknown method: assume the worst *)
