(* The shared scheduler substrate — the per-replica half of the paper's
   two-module architecture (section 4.3/5) that is policy-independent.

   It owns what every decision module used to hand-roll:
   - thread lifecycle: arrival-ordered registration (a monotone sequence
     number per admission), an O(log n) sorted candidate index over the
     live threads, O(1) tid lookup;
   - per-mutex FIFO wait queues ({!Waitq});
   - the prediction plumbing: an optional {!Bookkeeping} instance,
     registered per request with the start method and updated from the
     injected calls, with the decision-module queries re-exported;
   - flight-recorder boilerplate: the scheduler-named audit/metric helpers.

   Decision modules ({!Decision.S}) hold only policy state (who is primary,
   which round is open, where the token is) and consult the substrate for
   everything else. *)

open Detmt_runtime
module Recorder = Detmt_obs.Recorder
module Audit = Detmt_obs.Audit

(* The pending operation of a thread stopped at a scheduler gate.  [Resume]
   is a nested reply awaiting policy admission (SAT's queue, MAT's
   ex-primaries). *)
type pending = Lock of int | Reacquire of int | Resume

type thread = {
  tid : int;
  seq : int; (* admission order; re-admission gets a fresh one *)
  mutable is_primary : bool; (* MAT-family role flag *)
  mutable ex_primary : bool; (* suspended while primary; resumes as primary *)
  mutable suspended : bool;
  mutable pending : pending option;
}

type t = {
  actions : Sched_iface.actions;
  name : string; (* the variant name, for metrics and the audit log *)
  config : Config.t;
  bookkeeping : Bookkeeping.t option;
  summary : Detmt_analysis.Predict.class_summary option;
      (* the raw §4.3 tables, for delivery-time conflict-class resolution
         (the conflict-graph family reads sync parameters straight from it) *)
  workers : int; (* pool width; 1 for every serial decision module *)
  mutable next_seq : int;
  by_tid : (int, thread) Hashtbl.t; (* live threads, O(1) lookup *)
  order : thread Candidate_index.t; (* live threads keyed by [seq] *)
  waitq : Waitq.t; (* per-mutex FIFO wait queues *)
}

let create ?bookkeeping ?summary ?(workers = 1) ~name ~config
    (actions : Sched_iface.actions) =
  { actions; name; config; bookkeeping; summary; workers; next_seq = 0;
    by_tid = Hashtbl.create 64; order = Candidate_index.create ();
    waitq = Waitq.create () }

let actions t = t.actions

let name t = t.name

let config t = t.config

let bookkeeping t = t.bookkeeping

let summary t = t.summary

let workers t = t.workers

let waitq t = t.waitq

(* ------------------------------ lifecycle ------------------------------ *)

(* Insert a thread at the tail of the admission order.  Used both for fresh
   requests and for re-admission (a pMAT waiter re-enters at the tail on its
   notification). *)
let enqueue t ~tid =
  let th =
    { tid; seq = t.next_seq; is_primary = false; ex_primary = false;
      suspended = false; pending = None }
  in
  t.next_seq <- t.next_seq + 1;
  Hashtbl.replace t.by_tid tid th;
  Candidate_index.add t.order ~key:th.seq th;
  th

(* Admission of a fresh request: registers the thread's start method with
   the bookkeeping module (when present) and enters it into the order. *)
let admit t ~tid =
  Option.iter
    (fun bk -> Bookkeeping.register bk ~tid ~meth:(t.actions.request_method tid))
    t.bookkeeping;
  enqueue t ~tid

(* Leave the admission order but keep the bookkeeping table (pMAT waiters:
   the thread still exists and its prediction state must survive). *)
let remove t ~tid =
  match Hashtbl.find_opt t.by_tid tid with
  | None -> ()
  | Some th ->
    Hashtbl.remove t.by_tid tid;
    Candidate_index.remove t.order th.seq

(* Termination: leave the order and forget the bookkeeping table. *)
let retire t ~tid =
  remove t ~tid;
  Option.iter (fun bk -> Bookkeeping.release bk ~tid) t.bookkeeping

let find_thread t tid = Hashtbl.find_opt t.by_tid tid

let thread t tid =
  match Hashtbl.find_opt t.by_tid tid with
  | Some th -> th
  | None ->
    invalid_arg (Printf.sprintf "%s: unknown thread t%d" t.name tid)

let live_count t = Candidate_index.cardinal t.order

(* Oldest-first views of the live threads (ascending admission order). *)

let first t ~f = Option.map snd (Candidate_index.find_first t.order ~f:(fun _ th -> f th))

let iter t ~f = Candidate_index.iter t.order ~f:(fun _ th -> f th)

let fold t ~init ~f =
  Candidate_index.fold t.order ~init ~f:(fun _ th acc -> f acc th)

let tids t ~f =
  List.rev
    (fold t ~init:[] ~f:(fun acc th -> if f th then th.tid :: acc else acc))

(* --------------------------- prediction plumbing ----------------------- *)

(* Queries degrade to the pessimistic answer without a bookkeeping module,
   matching what the pessimistic scheduler variants assumed. *)

let predicted t ~tid =
  match t.bookkeeping with
  | None -> false
  | Some bk -> Bookkeeping.predicted bk ~tid

let future_may_lock t ~tid ~mutex =
  match t.bookkeeping with
  | None -> true
  | Some bk -> Bookkeeping.future_may_lock bk ~tid ~mutex

let no_future_locks t ~tid =
  match t.bookkeeping with
  | None -> false
  | Some bk -> Bookkeeping.no_future_locks bk ~tid

let iter_future t ~tid ~f =
  match t.bookkeeping with
  | None -> false
  | Some bk -> Bookkeeping.iter_future bk ~tid ~f

let uses_condvars t ~tid =
  match t.bookkeeping with
  | None -> true
  | Some bk -> Bookkeeping.uses_condvars bk ~tid

(* Event forwarders, no-ops without a bookkeeping module — decision modules
   wire these into their scheduler record instead of repeating the
   [Option.iter] dance. *)

let bk_lockinfo t ~tid ~syncid ~mutex =
  Option.iter
    (fun bk -> Bookkeeping.on_lockinfo bk ~tid ~syncid ~mutex)
    t.bookkeeping

let bk_ignore t ~tid ~syncid =
  Option.iter (fun bk -> Bookkeeping.on_ignore bk ~tid ~syncid) t.bookkeeping

let bk_acquired t ~tid ~syncid ~mutex =
  Option.iter
    (fun bk -> Bookkeeping.on_acquired bk ~tid ~syncid ~mutex)
    t.bookkeeping

let bk_loop_enter t ~tid ~loopid =
  Option.iter
    (fun bk -> Bookkeeping.on_loop_enter bk ~tid ~loopid)
    t.bookkeeping

let bk_loop_exit t ~tid ~loopid =
  Option.iter
    (fun bk -> Bookkeeping.on_loop_exit bk ~tid ~loopid)
    t.bookkeeping

(* ----------------------------- observability --------------------------- *)

let observing t = Recorder.enabled t.actions.obs

let metric t suffix = "sched." ^ t.name ^ "." ^ suffix

let incr ?by t suffix = Recorder.incr ?by t.actions.obs (metric t suffix)

let observe t suffix v = Recorder.observe t.actions.obs (metric t suffix) v

let audit t ~tid ~action ?mutex ~rule ?candidates () =
  Recorder.decision t.actions.obs ~at:(t.actions.now ())
    ~replica:t.actions.replica_id ~scheduler:t.name ~tid ~action ?mutex ~rule
    ?candidates ()

(* ------------------------------- grants -------------------------------- *)

(* Execute a thread's pending operation.  The caller has decided the grant;
   audit emission stays with the caller (rules differ per policy). *)
let perform_pending t th =
  match th.pending with
  | Some (Lock _) ->
    th.pending <- None;
    t.actions.grant_lock th.tid
  | Some (Reacquire _) ->
    th.pending <- None;
    t.actions.grant_reacquire th.tid
  | Some Resume ->
    th.pending <- None;
    t.actions.resume_nested th.tid
  | None ->
    invalid_arg (Printf.sprintf "%s: no pending op for t%d" t.name th.tid)

(* Every grant a decision module performs flows through here, so this is
   the one place the profiler's Grant phase is timed.  Grants can cascade
   (a grant unblocks the interpreter, which reports the next operation,
   which may grant again synchronously); the profiler times the outermost
   activation only. *)
let perform t th =
  match Recorder.profiler t.actions.obs with
  | None -> perform_pending t th
  | Some p ->
    Detmt_obs.Profile.phase_begin p Detmt_obs.Profile.Grant;
    perform_pending t th;
    Detmt_obs.Profile.phase_end p Detmt_obs.Profile.Grant
