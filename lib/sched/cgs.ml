(* CGS — conflict-graph scheduling (parallel state-machine replication,
   "early scheduling" after Alchieri, Dotti and Pedone).

   The paper's five schedulers serialise lock acquisitions through a token
   (SAT's active thread, MAT's primary, PDS's rounds).  CGS instead decides
   {e at delivery time}: every request is assigned a conflict class — the
   set of mutexes its execution may acquire, resolved from the §4.3
   prediction summary against the request's own arguments — and the live
   requests form a conflict graph keyed by total-order slot.  Requests whose
   classes are disjoint from every older live request are dispatched
   concurrently onto a pool of [Sched_config.workers] simulated workers;
   requests that conflict wait until the conflicting predecessors commit
   (terminate).  Completions therefore retire in per-mutex slot order — the
   deterministic commit barrier — which makes reply tables, object states
   and per-mutex acquisition fingerprints independent of the worker count
   and of delivery timing skew across replicas.

   Class resolution, per start method of the summary:
   - [Sp_this]   -> the object monitor ([actions.self_mutex]);
   - [Sp_arg i]  -> the request's [i]-th argument when it is a mutex value
                    ([actions.request_arg]);
   - anything else (locals, fields, globals, call results, fallback or
     unknown methods) -> [Top], the opaque class that conflicts with
     everything, so unresolvable requests serialise exactly like SEQ.

   Determinism argument (the invariants DESIGN.md spells out):
   1. Two live requests whose classes share a mutex are never in flight
      together, except through the condvar hole below; among waiters the
      scan is slot-ordered FIFO, so the per-mutex acquisition order is the
      slot-order projection — a function of the total order only.
   2. A parked waiter (condvar wait on monitor [m]) releases its worker and
      stops blocking [m] — the hole that lets its future notifier run —
      but keeps blocking the rest of its class.
   3. A woken waiter re-acquires as soon as its monitor is free and no
      other live class member is in flight; it resumes on a transient
      oversubscribed worker, so wakeup order is a function of the
      per-mutex event order only, never of pool occupancy (which varies
      with delivery timing across replicas).
   4. Within one request, lock grants are immediate (its class owns its
      mutexes while it runs), so the intra-request order is program order.

   The {!Predicted} variant (pcgs) additionally shrinks a running request's
   in-flight blockset to [held ∪ future] once the bookkeeping
   module proves the prediction exact — early release, Figure 2 style — so
   successors can start before the predecessor terminates.  Threads whose
   method may touch condition variables keep the static class (the pPDS
   exclusion rule: waits and notifies re-enter the grant machinery at
   timing-dependent points).

   Known limitation, documented like SEQ's wait deadlock: a [Top]-class
   request that executes a condvar wait keeps blocking everything while
   parked, so its notifier can never run.  Every condvar workload in the
   tree resolves its monitor ([Sp_this]), which keeps the hole open.

   Workspace speculation (the {!Workspace} and {!Safety_net} variants).
   Instead of waiting for the graph to clear, a speculation-eligible request
   is dispatched immediately against a copy-on-write workspace
   ({!Detmt_runtime.Workspace}): reads page committed values in, writes stay
   in a private overlay, lock acquisitions are virtual.  When the
   speculation finishes it parks in [Spec_ready] (worker released) until its
   slot-order commit barrier — every older live request terminated or
   condvar-parked — where the workspace is validated value-by-value against
   the committed state and either merged ([ws_commit] true) or discarded and
   re-executed directly at the barrier.  Because the barrier admits exactly
   the slot-serial prefix, the commit-or-abort verdict and the re-execution
   are functions of the total order alone: replicas may disagree on abort
   {e counts} (torn reads depend on worker timing) but never on replies,
   states or per-mutex acquisition order.  Scan rules that keep this true:

   - a speculative dispatch needs only a free worker — it ignores the
     conflict graph and the pend prefix (validation subsumes them);
   - no younger request may start {e directly} (and no woken waiter may
     reacquire) while an older speculation is live — a direct execution
     writes committed state with nothing to validate it against, so it must
     stay behind every older uncommitted slot;
   - commits happen only at the head: one [Spec_ready] node commits per
     scan, and only when no older non-parked node is live.  Condvar-parked
     elders do not block the barrier — in SEQ a parked request's
     continuation also runs after younger slots complete.

   Requests whose method may touch condition variables never speculate
   (wait/notify cannot be virtualised; hitting one anyway aborts the
   speculation defensively), and fallback/unknown methods are classified
   condvar-capable by the bookkeeping, so only statically analysed methods
   enter a workspace.  Mirror of the [Top]+wait limitation above: in a
   workload mixing condvar methods with speculation, a parked waiter whose
   notifier is younger than a live speculation delays that notifier until
   the speculation commits — safe, merely slower; no in-tree workload mixes
   the two.

   [wss] ({!Workspace}) speculates {e every} condvar-free request and
   replays the virtual acquisition log into the real acquisition
   fingerprints at commit, so its per-mutex order is the slot-order
   projection — differentially equal to SEQ.  [cgs+ws] ({!Safety_net})
   keeps the conflict graph for resolvable classes and speculates only
   [Top]-class requests (the ones plain CGS would serialise), leaving
   acquisition fingerprints to the direct executions — differentially equal
   to CGS whenever predictions resolve every class. *)

open Detmt_runtime
module Audit = Detmt_obs.Audit
module Predict = Detmt_analysis.Predict
module Iset = Set.Make (Int)

type cls = Top | Mutexes of Iset.t

(* Which requests execute speculatively inside a copy-on-write workspace:
   none (cgs/pcgs), only [Top]-class ones (cgs+ws — the safety net for
   mispredictions), or every condvar-free one (wss). *)
type spec_mode = No_spec | Spec_top | Spec_all

(* Waiting: delivered, not yet dispatched.  Running: on a pool worker
   (nested invocations keep the worker).  Parked: condvar wait on the
   monitor, worker released.  Woken: notified, needs the monitor back.
   Spec: executing against a workspace on a pool worker.  Spec_ready:
   speculation finished, worker released, workspace held for the
   slot-order commit barrier.  Committing: workspace merged, reply build
   in progress until the ordinary terminate. *)
type phase =
  | Waiting
  | Running
  | Parked of int
  | Woken of int
  | Spec
  | Spec_ready
  | Committing

type node = {
  tid : int;
  cls : cls; (* static conflict class, fixed at delivery *)
  mutable spec : bool; (* destined for workspace execution; cleared when an
                          abort forces the retry onto the direct path *)
  mutable phase : phase;
  mutable held : Iset.t; (* mutexes currently held *)
  mutable contrib : cls option; (* blockset registered in the graph *)
}

type t = {
  sub : Substrate.t;
  pool : Decision.Pool.t;
  early : bool; (* pcgs: prediction-shrunk in-flight blocksets *)
  spec : spec_mode;
  record_acq : bool; (* replay virtual acquisitions into the fingerprint at
                        commit (wss differentially matches SEQ) *)
  nodes : (int, node) Hashtbl.t;
  (* The conflict graph's edge information, kept as a multiset: how many
     in-flight nodes block each mutex, plus the count of opaque ([Top])
     and total contributors.  Eligibility tests are O(|class|). *)
  counts : (int, int) Hashtbl.t;
  mutable top_count : int;
  mutable inflight : int;
  mutable woken : int; (* nodes in [Woken] phase, for the scan fast path *)
  mutable ready : int; (* nodes in [Spec_ready] phase, same purpose *)
  mutable scanning : bool; (* re-entrancy guard for the grant cascade *)
  mutable again : bool;
}

(* --------------------------- class resolution -------------------------- *)

let classify t ~tid =
  let a = Substrate.actions t.sub in
  match Substrate.summary t.sub with
  | None -> Top
  | Some summary ->
    (match Predict.find_method summary (a.request_method tid) with
    | None -> Top
    | Some ms when ms.Predict.fallback -> Top
    | Some ms ->
      let resolve acc (si : Predict.sid_info) =
        match acc with
        | None -> None
        | Some s ->
          (match si.Predict.param with
          | Detmt_lang.Ast.Sp_this -> Some (Iset.add (a.self_mutex ()) s)
          | Detmt_lang.Ast.Sp_arg i ->
            (match a.request_arg ~tid i with
            | Some (Detmt_lang.Ast.Vmutex m) -> Some (Iset.add m s)
            | Some _ | None -> None)
          | _ -> None)
      in
      (match List.fold_left resolve (Some Iset.empty) ms.Predict.sids with
      | Some s -> Mutexes s
      | None -> Top))

(* --------------------------- graph bookkeeping ------------------------- *)

let count t m = Option.value ~default:0 (Hashtbl.find_opt t.counts m)

let add_contrib t = function
  | Top ->
    t.top_count <- t.top_count + 1;
    t.inflight <- t.inflight + 1
  | Mutexes s ->
    Iset.iter (fun m -> Hashtbl.replace t.counts m (count t m + 1)) s;
    t.inflight <- t.inflight + 1

let remove_contrib t = function
  | Top ->
    t.top_count <- t.top_count - 1;
    t.inflight <- t.inflight - 1
  | Mutexes s ->
    Iset.iter
      (fun m ->
        match count t m - 1 with
        | 0 -> Hashtbl.remove t.counts m
        | c -> Hashtbl.replace t.counts m c)
      s;
    t.inflight <- t.inflight - 1

(* The blockset an in-flight node imposes on the rest of the graph. *)
let blockset t n =
  match n.phase with
  | Waiting -> None
  | Running ->
    Some
      (match n.cls with
      | Top -> Top
      | Mutexes s ->
        let static () = Mutexes (Iset.union s n.held) in
        if t.early && not (Substrate.uses_condvars t.sub ~tid:n.tid) then
          let exact = ref n.held in
          if
            Substrate.iter_future t.sub ~tid:n.tid ~f:(fun m ->
                exact := Iset.add m !exact)
          then Mutexes !exact (* early release: held ∪ future *)
          else static ()
        else static ())
  | Parked m ->
    (* The condvar hole: stop blocking the parked monitor so the future
       notifier can dispatch; keep blocking the rest of the class. *)
    Some
      (match n.cls with
      | Top -> Top
      | Mutexes s -> Mutexes (Iset.union n.held (Iset.remove m s)))
  | Woken _ ->
    Some
      (match n.cls with
      | Top -> Top
      | Mutexes s -> Mutexes (Iset.union n.held s))
  | Spec | Spec_ready | Committing ->
    (* Speculations never touch committed state or real mutexes before
       their commit barrier, so they impose nothing on the graph; the
       scan's [spec_seen] rule is what holds younger direct starts back. *)
    None

(* Blocksets compare by content: equal sets built along different paths
   differ in tree shape, which polymorphic equality would report as a
   change.  ([Iset.equal] would allocate an enumeration per call.) *)
let same_blockset a b =
  match (a, b) with
  | None, None | Some Top, Some Top -> true
  | Some (Mutexes x), Some (Mutexes y) ->
    x == y
    || Iset.cardinal x = Iset.cardinal y
       && Iset.for_all (fun m -> Iset.mem m y) x
  | _ -> false

(* Recompute and re-register a node's blockset; [true] when it changed. *)
let refresh t n =
  let next = blockset t n in
  if same_blockset next n.contrib then false
  else begin
    Option.iter (remove_contrib t) n.contrib;
    Option.iter (add_contrib t) next;
    n.contrib <- next;
    true
  end

let node t tid =
  match Hashtbl.find_opt t.nodes tid with
  | Some n -> n
  | None ->
    invalid_arg
      (Printf.sprintf "%s: unknown node t%d" (Substrate.name t.sub) tid)

(* ------------------------------- the scan ------------------------------ *)

type decision =
  | Start of node
  | Reacquire of node * int
  | Start_spec of node
  | Commit of node

exception Decide of decision

(* One slot-ordered pass over the live nodes.  [pend] accumulates the
   classes of older undispatched waiters (the FIFO-per-class rule: an
   undispatched request blocks every younger class-sharer, which pins the
   per-mutex acquisition order to the slot order).  Woken nodes are checked
   against the in-flight graph minus their own contribution; they skip the
   pend prefix (their class is disjoint from every older pending class by
   the dispatch invariant) and the capacity check (rule 3 above).

   Two more slot-ordered flags carry the workspace rules: [spec_seen] — an
   older uncommitted speculation has been passed, so no younger node may
   start directly or reacquire (its committed-state writes would have
   nothing validating them against the older slot); and [blocking_older] —
   some older non-parked node is still live, so a [Spec_ready] node is not
   yet at its commit barrier.  Parked elders set neither: a parked
   request's continuation runs after younger slots in SEQ too. *)
exception No_decision

(* The short-circuits below never change which decision a full pass would
   return — they only skip passes (or suffixes) that provably return
   [None], which is what keeps the scan off the O(live-requests) path for
   every event fired while the pool is saturated.  Start needs a free
   worker; Reacquire needs a [Woken] node; Commit needs a [Spec_ready]
   node; and once an opaque waiter has been passed over, no younger
   Waiting node can start either (only valid with speculation off:
   speculative dispatches ignore the pend prefix). *)
let find_decision t =
  let can_start = not (Decision.Pool.saturated t.pool) in
  if (not can_start) && t.woken = 0 && t.ready = 0 then None
  else begin
  let woken_unseen = ref t.woken in
  let pend = ref Iset.empty and pend_top = ref false and pend_n = ref 0 in
  let spec_seen = ref false and blocking_older = ref false in
  let glob_conflict = function
    | Top -> t.inflight > 0
    | Mutexes s -> t.top_count > 0 || Iset.exists (fun m -> count t m > 0) s
  in
  let pend_conflict = function
    | Top -> !pend_n > 0
    | Mutexes s -> !pend_top || Iset.exists (fun m -> Iset.mem m !pend) s
  in
  let add_pend = function
    | Top ->
      pend_top := true;
      incr pend_n
    | Mutexes s ->
      pend := Iset.union !pend s;
      incr pend_n
  in
  let visit (th : Substrate.thread) =
    match Hashtbl.find_opt t.nodes th.tid with
    | None -> ()
    | Some n ->
      (match n.phase with
      | Running -> blocking_older := true
      | Parked _ -> ()
      | Committing -> blocking_older := true
      | Spec ->
        blocking_older := true;
        spec_seen := true
      | Spec_ready ->
        if not !blocking_older then raise (Decide (Commit n));
        blocking_older := true;
        spec_seen := true
      | Waiting when n.spec ->
        if can_start then raise (Decide (Start_spec n));
        blocking_older := true;
        spec_seen := true
      | Waiting ->
        if
          can_start
          && (not !spec_seen)
          && (not !pend_top)
          && (not (glob_conflict n.cls))
          && not (pend_conflict n.cls)
        then raise (Decide (Start n))
        else begin
          blocking_older := true;
          add_pend n.cls;
          if !pend_top && !woken_unseen = 0 && t.spec = No_spec then
            raise No_decision
        end
      | Woken m ->
        decr woken_unseen;
        let eligible =
          (not !spec_seen)
          && (Substrate.actions t.sub).mutex_free_for ~tid:n.tid ~mutex:m
          &&
          match n.cls with
          | Top -> t.inflight <= 1 (* only its own contribution *)
          | Mutexes s ->
            let need = Iset.union n.held s in
            let own =
              match n.contrib with Some (Mutexes o) -> o | _ -> Iset.empty
            in
            t.top_count = 0
            && not
                 (Iset.exists
                    (fun m' ->
                      count t m' > (if Iset.mem m' own then 1 else 0))
                    need)
        in
        if eligible then raise (Decide (Reacquire (n, m)));
        blocking_older := true)
  in
  match Substrate.iter t.sub ~f:visit with
  | () -> None
  | exception No_decision -> None
  | exception Decide d -> Some d
  end

let perform t = function
  | Start n ->
    n.phase <- Running;
    ignore (refresh t n);
    let w = Decision.Pool.dispatch t.pool ~tid:n.tid in
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "dispatches";
      Substrate.observe t.sub "pool_busy"
        (float_of_int (Decision.Pool.busy t.pool));
      Substrate.audit t.sub ~tid:n.tid ~action:Audit.Start_thread
        ~rule:Audit.Predicted_no_conflict
        ~candidates:[ w ] ()
    end;
    (Substrate.actions t.sub).start_thread n.tid
  | Start_spec n ->
    n.phase <- Spec;
    let w = Decision.Pool.dispatch t.pool ~tid:n.tid in
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "spec_dispatches";
      Substrate.observe t.sub "pool_busy"
        (float_of_int (Decision.Pool.busy t.pool));
      Substrate.audit t.sub ~tid:n.tid ~action:Audit.Start_thread
        ~rule:Audit.Speculative ~candidates:[ w ] ()
    end;
    let a = Substrate.actions t.sub in
    a.ws_begin ~tid:n.tid ~record_acquisitions:t.record_acq;
    a.start_thread n.tid
  | Commit n ->
    n.phase <- Committing;
    t.ready <- t.ready - 1;
    if (Substrate.actions t.sub).ws_commit ~tid:n.tid then begin
      if Substrate.observing t.sub then begin
        Substrate.incr t.sub "ws_commits";
        Substrate.audit t.sub ~tid:n.tid ~action:Audit.Commit_ws
          ~rule:Audit.Slot_barrier ()
      end
    end
    else begin
      (* Stale reads: the workspace was discarded and the thread reset.
         Retry directly — the node sits at its own barrier (nothing older
         is live except parked elders), so the very next scan starts it
         against the committed state it just validated against. *)
      n.spec <- false;
      n.phase <- Waiting;
      if Substrate.observing t.sub then begin
        Substrate.incr t.sub "ws_aborts";
        Substrate.audit t.sub ~tid:n.tid ~action:Audit.Abort_ws
          ~rule:Audit.Stale_read ()
      end
    end
  | Reacquire (n, m) ->
    n.phase <- Running;
    t.woken <- t.woken - 1;
    ignore (refresh t n);
    ignore (Decision.Pool.dispatch t.pool ~tid:n.tid);
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "grants";
      if Decision.Pool.saturated t.pool then
        Substrate.incr t.sub "oversubscribed";
      Substrate.audit t.sub ~tid:n.tid ~action:Audit.Grant_reacquire
        ~mutex:m ~rule:Audit.Fifo_head ()
    end;
    Substrate.perform t.sub (Substrate.thread t.sub n.tid)

(* Grants cascade synchronously (a dispatch runs interpreter steps that may
   terminate the thread and re-enter the scheduler), so the scan must not
   iterate across its own mutations: find one decision, perform it, rescan
   from the top.  The [scanning] guard turns re-entrant rescans into a
   pending [again] bit drained by the outer activation. *)
let rec drain t =
  match find_decision t with
  | None -> ()
  | Some d ->
    perform t d;
    drain t

and rescan t =
  if t.scanning then t.again <- true
  else begin
    t.scanning <- true;
    let rec loop () =
      t.again <- false;
      drain t;
      if t.again then loop ()
    in
    loop ();
    t.scanning <- false
  end

(* ------------------------------ callbacks ------------------------------ *)

let on_request t tid =
  ignore (Substrate.admit t.sub ~tid);
  let cls = classify t ~tid in
  (* Speculation eligibility is fixed at delivery: condvar-capable methods
     (including every fallback/unknown one — the bookkeeping reports those
     pessimistically) take the direct path, so wait/notify only ever reach
     a workspace through a prediction bug, where the replica aborts them. *)
  let spec =
    (match t.spec with
    | No_spec -> false
    | Spec_top -> cls = Top
    | Spec_all -> true)
    && not (Substrate.uses_condvars t.sub ~tid)
  in
  let n = { tid; cls; spec; phase = Waiting; held = Iset.empty;
            contrib = None }
  in
  Hashtbl.replace t.nodes tid n;
  rescan t;
  if n.phase = Waiting && Substrate.observing t.sub then begin
    Substrate.incr t.sub "deferrals";
    Substrate.audit t.sub ~tid ~action:Audit.Defer ~rule:Audit.Queue_wait ()
  end

(* Within one request the class owns its mutexes, so a lock is granted the
   moment it is requested.  The queue below is defensive only: it preserves
   per-mutex FIFO order if an unforeseen overlap ever materialises, rather
   than crashing the replica with a grant on a held mutex. *)
let on_lock t tid ~syncid:_ ~mutex =
  let th = Substrate.thread t.sub tid in
  th.pending <- Some (Substrate.Lock mutex);
  if (Substrate.actions t.sub).mutex_free_for ~tid ~mutex then begin
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "grants";
      Substrate.audit t.sub ~tid ~action:Audit.Grant_lock ~mutex
        ~rule:Audit.Mutex_free ()
    end;
    Substrate.perform t.sub th
  end
  else begin
    Waitq.push (Substrate.waitq t.sub) ~mutex tid;
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "deferrals";
      Substrate.audit t.sub ~tid ~action:Audit.Defer ~mutex
        ~rule:Audit.Mutex_held
        ~candidates:
          (Option.to_list ((Substrate.actions t.sub).mutex_owner mutex))
        ()
    end
  end

let service_waitq t ~mutex =
  let a = Substrate.actions t.sub in
  match Waitq.head (Substrate.waitq t.sub) ~mutex with
  | Some tid when a.mutex_free_for ~tid ~mutex ->
    ignore (Waitq.pop (Substrate.waitq t.sub) ~mutex);
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "grants";
      Substrate.audit t.sub ~tid ~action:Audit.Grant_lock ~mutex
        ~rule:Audit.Fifo_head ()
    end;
    Substrate.perform t.sub (Substrate.thread t.sub tid)
  | _ -> ()

let on_acquired t tid ~syncid ~mutex =
  Substrate.bk_acquired t.sub ~tid ~syncid ~mutex;
  let n = node t tid in
  n.held <- Iset.add mutex n.held;
  if refresh t n then rescan t

let on_unlock t tid ~syncid:_ ~mutex ~freed =
  if freed then begin
    let n = node t tid in
    n.held <- Iset.remove mutex n.held;
    ignore (refresh t n);
    rescan t;
    service_waitq t ~mutex
  end

let on_wait t tid ~mutex =
  (* The wait released the monitor; the worker goes back to the pool. *)
  let n = node t tid in
  n.held <- Iset.remove mutex n.held;
  n.phase <- Parked mutex;
  ignore (refresh t n);
  Decision.Pool.complete t.pool ~tid;
  if Substrate.observing t.sub then Substrate.incr t.sub "parks";
  rescan t;
  service_waitq t ~mutex

let on_wakeup t tid ~mutex =
  let n = node t tid in
  n.phase <- Woken mutex;
  t.woken <- t.woken + 1;
  ignore (refresh t n);
  (Substrate.thread t.sub tid).pending <- Some (Substrate.Reacquire mutex);
  rescan t

let on_reacquired t tid ~mutex =
  let n = node t tid in
  n.held <- Iset.add mutex n.held;
  ignore (refresh t n)

let on_nested_reply t tid =
  (* The thread kept its worker across the nested invocation: resume. *)
  (Substrate.actions t.sub).resume_nested tid

let on_ws_event t tid ev =
  let n = node t tid in
  (match (ev : Sched_iface.ws_event) with
  | Ws_ready ->
    (* Speculation done; hold the workspace for the commit barrier but
       give the worker back so younger speculations can run. *)
    n.phase <- Spec_ready;
    t.ready <- t.ready + 1
  | Ws_unsafe ->
    (* The replica discarded the workspace (wait/notify/nested mid-
       speculation) and reset the thread; retry on the direct path under
       the ordinary graph rules. *)
    n.spec <- false;
    n.phase <- Waiting;
    if Substrate.observing t.sub then begin
      Substrate.incr t.sub "ws_aborts";
      Substrate.audit t.sub ~tid ~action:Audit.Abort_ws ~rule:Audit.Unsafe_op
        ()
    end);
  Decision.Pool.complete t.pool ~tid;
  rescan t

let on_terminate t tid =
  (match Hashtbl.find_opt t.nodes tid with
  | None -> ()
  | Some n ->
    Option.iter (remove_contrib t) n.contrib;
    n.contrib <- None;
    Hashtbl.remove t.nodes tid);
  Decision.Pool.complete t.pool ~tid;
  Substrate.retire t.sub ~tid;
  if Substrate.observing t.sub then Substrate.incr t.sub "commits";
  rescan t

let policy ?(spec = No_spec) ?(record_acq = false) ~early sub pool :
    Sched_iface.sched =
  let t =
    { sub; pool; early; spec; record_acq; nodes = Hashtbl.create 64;
      counts = Hashtbl.create 64; top_count = 0; inflight = 0; woken = 0;
      ready = 0; scanning = false; again = false }
  in
  let base =
    Sched_iface.no_op_sched ~name:(Substrate.name sub)
      ~on_request:(on_request t) ~on_lock:(on_lock t)
      ~on_wakeup:(on_wakeup t) ~on_nested_reply:(on_nested_reply t)
  in
  { base with
    on_ws_event = (fun tid ev -> on_ws_event t tid ev);
    on_acquired =
      (fun tid ~syncid ~mutex -> on_acquired t tid ~syncid ~mutex);
    on_unlock =
      (fun tid ~syncid ~mutex ~freed -> on_unlock t tid ~syncid ~mutex ~freed);
    on_wait = (fun tid ~mutex -> on_wait t tid ~mutex);
    on_reacquired = (fun tid ~mutex -> on_reacquired t tid ~mutex);
    on_terminate = on_terminate t;
    on_lockinfo =
      (fun tid ~syncid ~mutex ->
        Substrate.bk_lockinfo sub ~tid ~syncid ~mutex;
        if refresh t (node t tid) then rescan t);
    on_ignore =
      (fun tid ~syncid ->
        Substrate.bk_ignore sub ~tid ~syncid;
        if refresh t (node t tid) then rescan t);
    on_loop_enter =
      (fun tid ~loopid ->
        Substrate.bk_loop_enter sub ~tid ~loopid;
        if refresh t (node t tid) then rescan t);
    on_loop_exit =
      (fun tid ~loopid ->
        Substrate.bk_loop_exit sub ~tid ~loopid;
        if refresh t (node t tid) then rescan t) }

module Base : Decision.Parallel = struct
  let name = "cgs"

  let needs_prediction = true

  let policy sub pool = policy ~early:false sub pool
end

module Predicted : Decision.Parallel = struct
  let name = "pcgs"

  let needs_prediction = true

  let policy sub pool = policy ~early:true sub pool
end

module Workspace : Decision.Parallel = struct
  let name = "wss"

  let needs_prediction = true

  let policy sub pool =
    policy ~spec:Spec_all ~record_acq:true ~early:false sub pool
end

module Safety_net : Decision.Parallel = struct
  let name = "cgs+ws"

  let needs_prediction = true

  let policy sub pool = policy ~spec:Spec_top ~early:false sub pool
end
