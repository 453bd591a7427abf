open Detmt_sim
module Recorder = Detmt_obs.Recorder

type thread_status =
  | Created
  | Running
  | Lock_blocked of { syncid : int; mutex : int }
  | Wait_parked of { mutex : int; count : int }
  | Reacquire_blocked of { mutex : int; count : int }
  | Nested_blocked of { call_index : int }
  | Nested_ready of { call_index : int }
  | Commit_pending
  | Terminated

type callbacks = {
  send_reply : Request.t -> unit;
  do_nested :
    tid:int -> call_index:int -> service:int -> duration:float -> unit;
  broadcast_control : Sched_iface.control -> unit;
  inject_dummy : unit -> unit;
  is_leader : unit -> bool;
}

type thread = {
  tid : int;
  req : Request.t;
  mutable cont : (unit -> Interp.outcome) option;
  mutable status : thread_status;
  mutable nested_count : int; (* nested invocations issued so far *)
  mutable buffered_replies : int list; (* call indices answered early *)
  mutable ws : Workspace.t option;
      (* speculative execution: attached by [ws_begin], merged or discarded
         at [ws_commit]; [None] for direct execution *)
}

type t = {
  id : int;
  engine : Engine.t;
  cpu : Cpu.t;
  config : Config.t;
  cls : Detmt_lang.Class_def.t;
  obj : Object_state.t;
  mutexes : Mutex_table.t;
  condvars : Condvar.t;
  trace_rec : Trace.t;
  threads : (int, thread) Hashtbl.t; (* live threads only *)
  mutable active : int; (* delivered, not yet terminated *)
  mutable last_uid : int; (* highest request uid delivered *)
  mutable sched : Sched_iface.sched option;
  obs : Recorder.t;
  callbacks : callbacks;
  oracle : Interp.oracle;
  mutable live : bool;
  mutable completed : int;
  mutable ws_commits : int; (* workspace merges at the slot-order barrier *)
  mutable ws_aborts : int; (* discarded speculations (stale or unsafe) *)
  mutable acquisitions : int;
  acq_hashes : (int, int64) Hashtbl.t; (* per-mutex acquisition-order hash *)
  mutable on_quiescent : (completed:int -> unit) option;
      (* fired whenever the last active thread terminates — the replication
         layer hangs divergence checkpoints off this *)
  mutable advance_h : Engine.handler_id;
      (* typed continuations for the op-interpreter hot path: cost charging
         posts (handler, tid) pairs instead of allocating a closure per
         interpreter step *)
  mutable finish_h : Engine.handler_id;
  mutable pool_busy : int;
      (* pool workers currently running a thread (parallel schedulers only;
         observation-only series behind [observing]) *)
}

let sched t =
  match t.sched with
  | Some s -> s
  | None -> invalid_arg "Replica: scheduler not attached"

let thread t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some th -> th
  | None -> invalid_arg (Printf.sprintf "Replica %d: unknown thread %d" t.id tid)

(* Every event is folded into the trace hash; [Config.trace] only decides
   whether the timed event list is retained as well. *)
let record t ev = Trace.record_at t.trace_rec ~time:(Engine.now t.engine) ev

(* Observability (the flight recorder) is guarded at every call site:
   [t.obs] defaults to [Recorder.disabled] and must never affect the
   simulation — it only ever reads the clock. *)
let observing t = Recorder.enabled t.obs

let rec_wait_begin t th kind =
  Recorder.wait_begin t.obs ~replica:t.id ~uid:th.tid ~kind
    ~at:(Engine.now t.engine)

let rec_wait_end t th =
  Recorder.wait_end t.obs ~replica:t.id ~uid:th.tid ~at:(Engine.now t.engine)

(* Per-mutex ordering is the determinism property the schedulers guarantee:
   LSA's leader/follower pair legitimately interleaves acquisitions of
   *different* mutexes differently, but the sequence of owners of each single
   mutex must match on every replica.  Owners are identified by the
   request's (client, per-client sequence) pair, not the thread id: tids
   are total-order slot numbers, and nested-invocation messages consume
   slots, so the tid a given request lands on shifts with scheduler timing
   even when the acquisition order is logically identical — the request
   identity is what cross-scheduler differential comparisons need. *)
let record_acquisition t ~mutex ~th =
  t.acquisitions <- t.acquisitions + 1;
  let mix h x =
    Int64.mul (Int64.logxor h (Int64.of_int x)) 0x100000001B3L
  in
  let prev =
    Option.value ~default:0xCBF29CE484222325L
      (Hashtbl.find_opt t.acq_hashes mutex)
  in
  Hashtbl.replace t.acq_hashes mutex
    (mix (mix prev th.req.Request.client) th.req.Request.client_req)

let rec advance t th =
  if t.live then
    match th.cont with
    | None ->
      invalid_arg (Printf.sprintf "Replica %d: t%d has no continuation" t.id
                     th.tid)
    | Some k ->
      th.cont <- None;
      th.status <- Running;
      step t th (k ())

(* Charge CPU time and continue; zero-cost steps continue synchronously.
   The continuation is a typed (handler, tid) pair, so charging cost never
   allocates a closure — threads are looked up again at dispatch, which is
   safe because a thread leaves [t.threads] only in [finish], and a
   finished thread has no continuation left to dispatch. *)
and after_cost_advance t duration th =
  if duration <= 0.0 then advance t th
  else Cpu.exec_h t.cpu ~duration t.advance_h th.tid

and after_cost_finish t duration th =
  if duration <= 0.0 then finish t th
  else Cpu.exec_h t.cpu ~duration t.finish_h th.tid

and step t th outcome =
  match outcome with
  | Interp.Done -> (
    match th.ws with
    | Some _ ->
      (* Speculation complete: hold the workspace until the scheduler grants
         the slot-order commit barrier.  The reply is built (and the reply
         cost charged) only after a successful merge. *)
      th.status <- Commit_pending;
      if observing t then rec_wait_begin t th Recorder.Commit_hold;
      (sched t).on_ws_event th.tid Sched_iface.Ws_ready
    | None ->
      (* Final computation: build the reply message (section 4.1). *)
      let cost =
        if th.req.Request.dummy then 0.0 else t.config.reply_build_ms
      in
      after_cost_finish t cost th)
  | Interp.Yield (op, k) ->
    th.cont <- Some k;
    handle_op t th op

and finish t th =
  if t.live then begin
    (match th.status with Terminated -> () | _ -> t.active <- t.active - 1);
    th.status <- Terminated;
    record t (Trace.Thread_end { tid = th.tid });
    if observing t then begin
      Recorder.request_ended t.obs ~replica:t.id ~uid:th.tid
        ~at:(Engine.now t.engine);
      Recorder.incr t.obs "replica.requests_completed"
    end;
    t.completed <- t.completed + 1;
    (sched t).on_terminate th.tid;
    if not th.req.Request.dummy then t.callbacks.send_reply th.req;
    Hashtbl.remove t.threads th.tid;
    (* Local quiescence: every delivered request has run to completion.  The
       state is now a pure function of the delivered prefix of the total
       order, so it is the sound moment for a divergence checkpoint. *)
    match t.on_quiescent with
    | Some hook when t.active = 0 -> hook ~completed:t.completed
    | _ -> ()
  end

and handle_op t th op =
  match th.ws with
  | Some w -> handle_spec_op t th w op
  | None -> handle_direct_op t th op

(* Speculative execution: no committed-state side effects and no grant
   traffic through the scheduler.  Locks are virtualised into the workspace
   (same time charge as a direct grant, so a one-worker speculative run
   costs what SEQ costs); operations that cannot be virtualised abort the
   speculation — the thread re-executes directly in slot order. *)
and handle_spec_op t th w op =
  match op with
  | Op.Compute { duration } -> Cpu.exec_h t.cpu ~duration t.advance_h th.tid
  | Op.Lock { syncid = _; mutex } ->
    Workspace.vlock w ~mutex;
    after_cost_advance t t.config.lock_overhead_ms th
  | Op.Unlock { syncid = _; mutex } ->
    Workspace.vunlock w ~mutex;
    after_cost_advance t t.config.lock_overhead_ms th
  | Op.State_update { field; delta } ->
    (* Same system-model check as direct execution, against the virtual
       hold set. *)
    if not (Workspace.holds_any w) then
      invalid_arg
        (Printf.sprintf
           "Replica %d: speculative t%d updates %S without holding a lock"
           t.id th.tid field);
    Workspace.update_state w field delta;
    advance t th
  | Op.Lockinfo _ | Op.Ignore _ | Op.Loop_enter _ | Op.Loop_exit _ ->
    (* Announcements are suppressed while speculating: an aborted request
       re-executes from the top and replays the whole stream, so the
       bookkeeping module must not consume a partial one.  The injected
       call still costs its time. *)
    after_cost_advance t t.config.bookkeeping_overhead_ms th
  | Op.Wait _ | Op.Notify _ | Op.Nested _ -> ws_unsafe_abort t th

(* An operation the workspace cannot virtualise: discard the speculation and
   hand the thread back to the scheduler for direct re-execution.  The
   scheduler re-runs it at its slot-order barrier, so the re-execution reads
   exactly the slot-serial prefix — the abort changes timing, never
   observables. *)
and ws_unsafe_abort t th =
  t.ws_aborts <- t.ws_aborts + 1;
  record t (Trace.Ws_abort { tid = th.tid; conflicts = 0 });
  if observing t then Recorder.incr t.obs "replica.ws.aborts_unsafe";
  th.ws <- None;
  th.cont <- None;
  th.status <- Created;
  (sched t).on_ws_event th.tid Sched_iface.Ws_unsafe

and handle_direct_op t th op =
  let s = sched t in
  match op with
  | Op.Compute { duration } -> Cpu.exec_h t.cpu ~duration t.advance_h th.tid
  | Op.Lock { syncid; mutex } ->
    if Mutex_table.owner t.mutexes ~mutex = Some th.tid then begin
      (* Re-entrant entry: no scheduling decision needed (section 2: binary,
         re-entrant mutexes). *)
      Mutex_table.acquire t.mutexes ~mutex ~tid:th.tid;
      record t (Trace.Lock_granted { tid = th.tid; syncid; mutex });
      record_acquisition t ~mutex ~th;
      s.on_acquired th.tid ~syncid ~mutex;
      after_cost_advance t t.config.lock_overhead_ms th
    end
    else begin
      th.status <- Lock_blocked { syncid; mutex };
      record t (Trace.Lock_requested { tid = th.tid; syncid; mutex });
      if observing t then
        (* The scheduler may defer the grant even when the mutex is free;
           attribute that stall to policy, not contention. *)
        rec_wait_begin t th
          (if Mutex_table.is_free_for t.mutexes ~mutex ~tid:th.tid then
             Recorder.Lock_policy
           else Recorder.Lock_contention);
      s.on_lock th.tid ~syncid ~mutex
    end
  | Op.Unlock { syncid; mutex } ->
    let freed = Mutex_table.release t.mutexes ~mutex ~tid:th.tid in
    record t (Trace.Unlocked { tid = th.tid; syncid; mutex });
    s.on_unlock th.tid ~syncid ~mutex ~freed;
    after_cost_advance t t.config.lock_overhead_ms th
  | Op.Wait { mutex } ->
    let count = Mutex_table.release_all t.mutexes ~mutex ~tid:th.tid in
    th.status <- Wait_parked { mutex; count };
    Condvar.park t.condvars ~mutex ~tid:th.tid;
    record t (Trace.Wait_begin { tid = th.tid; mutex });
    if observing t then rec_wait_begin t th Recorder.Condvar;
    s.on_wait th.tid ~mutex
  | Op.Notify { mutex; all } ->
    record t (Trace.Notify { tid = th.tid; mutex; all });
    let woken =
      if all then Condvar.notify_all t.condvars ~mutex
      else Option.to_list (Condvar.notify_one t.condvars ~mutex)
    in
    List.iter
      (fun wtid ->
        let w = thread t wtid in
        match w.status with
        | Wait_parked { mutex = m; count } when m = mutex ->
          w.status <- Reacquire_blocked { mutex; count };
          if observing t then begin
            rec_wait_end t w;
            rec_wait_begin t w Recorder.Reacquire
          end;
          s.on_wakeup wtid ~mutex
        | _ ->
          invalid_arg
            (Printf.sprintf "Replica %d: notified t%d is not waiting" t.id
               wtid))
      woken;
    after_cost_advance t t.config.lock_overhead_ms th
  | Op.Nested { service; duration } ->
    let call_index = th.nested_count in
    th.nested_count <- call_index + 1;
    record t (Trace.Nested_begin { tid = th.tid; service });
    if List.mem call_index th.buffered_replies then begin
      (* The reply (broadcast by the invoking replica) overtook us. *)
      th.buffered_replies <-
        List.filter (fun i -> i <> call_index) th.buffered_replies;
      th.status <- Nested_ready { call_index };
      if observing t then rec_wait_begin t th Recorder.Resume_hold;
      s.on_nested_begin th.tid;
      record t (Trace.Nested_end { tid = th.tid; service = 0 });
      s.on_nested_reply th.tid
    end
    else begin
      th.status <- Nested_blocked { call_index };
      if observing t then rec_wait_begin t th Recorder.Nested;
      s.on_nested_begin th.tid;
      t.callbacks.do_nested ~tid:th.tid ~call_index ~service ~duration
    end
  | Op.Lockinfo { syncid; mutex } ->
    s.on_lockinfo th.tid ~syncid ~mutex;
    after_cost_advance t t.config.bookkeeping_overhead_ms th
  | Op.Ignore { syncid } ->
    s.on_ignore th.tid ~syncid;
    after_cost_advance t t.config.bookkeeping_overhead_ms th
  | Op.Loop_enter { loopid } ->
    s.on_loop_enter th.tid ~loopid;
    after_cost_advance t t.config.bookkeeping_overhead_ms th
  | Op.Loop_exit { loopid } ->
    s.on_loop_exit th.tid ~loopid;
    after_cost_advance t t.config.bookkeeping_overhead_ms th
  | Op.State_update { field; delta } ->
    (* System model (section 2): shared state is accessed under a lock. *)
    if not (Mutex_table.holds_any t.mutexes ~tid:th.tid) then
      invalid_arg
        (Printf.sprintf "Replica %d: t%d updates %S without holding a lock"
           t.id th.tid field);
    Object_state.update_state t.obj field delta;
    advance t th

(* ------------------------------------------------------------------ *)
(* Actions offered to the scheduler.                                   *)

let do_start_thread t tid =
  let th = thread t tid in
  (match th.status with
  | Created -> ()
  | _ -> invalid_arg (Printf.sprintf "Replica %d: t%d started twice" t.id tid));
  record t (Trace.Thread_start { tid; method_name = th.req.Request.meth });
  if observing t then
    Recorder.request_started t.obs ~replica:t.id ~uid:tid
      ~at:(Engine.now t.engine);
  th.cont <-
    Some
      (Interp.start ~cls:t.cls ~obj:t.obj ?ws:th.ws ~oracle:t.oracle
         ~req:th.req);
  advance t th

(* --------------------------- workspace actions --------------------------- *)

let do_ws_begin t ~tid ~record_acquisitions =
  let th = thread t tid in
  (match th.status with
  | Created -> ()
  | _ ->
    invalid_arg
      (Printf.sprintf "Replica %d: ws_begin for t%d not in Created" t.id tid));
  th.ws <- Some (Workspace.create ~base:t.obj ~record_acquisitions)

(* The slot-order commit barrier.  The scheduler guarantees quiescence for
   this slot (every older request terminated, no direct execution in
   flight), so the committed state the read set is validated against is
   exactly the slot-serial prefix — the verdict, and on failure the direct
   re-execution, are functions of the total order alone. *)
let do_ws_commit t tid =
  let th = thread t tid in
  match (th.status, th.ws) with
  | Commit_pending, Some w -> (
    if observing t then rec_wait_end t th;
    match Workspace.conflicts w with
    | [] ->
      t.ws_commits <- t.ws_commits + 1;
      record t (Trace.Ws_commit { tid; writes = Workspace.write_set_size w });
      if observing t then begin
        Recorder.incr t.obs "replica.ws.commits";
        Recorder.observe t.obs "replica.ws.write_set"
          (float_of_int (Workspace.write_set_size w));
        Recorder.observe t.obs "replica.ws.read_set"
          (float_of_int (Workspace.read_set_size w))
      end;
      Workspace.commit w;
      (* Replay the virtual acquisitions into the per-mutex order hashes —
         commits happen in slot order, so the projection matches SEQ's. *)
      if Workspace.record_acquisitions w then
        List.iter
          (fun mutex -> record_acquisition t ~mutex ~th)
          (Workspace.acquisition_log w);
      th.ws <- None;
      th.status <- Running;
      after_cost_finish t
        (if th.req.Request.dummy then 0.0 else t.config.reply_build_ms)
        th;
      true
    | conflicts ->
      (* Stale reads: a lower slot committed first — lowest-slot-wins.  The
         [Precise_error] policy additionally surfaces each conflicting
         field through the flight recorder. *)
      t.ws_aborts <- t.ws_aborts + 1;
      record t (Trace.Ws_abort { tid; conflicts = List.length conflicts });
      if observing t then begin
        Recorder.incr t.obs "replica.ws.aborts_stale";
        if t.config.Config.ws_precise then
          List.iter
            (fun (c : Workspace.conflict) ->
              Recorder.incr t.obs
                (Printf.sprintf "replica.ws.conflict.%s" c.field);
              Logs.warn (fun m ->
                  m "replica %d: workspace conflict t%d %a" t.id tid
                    Workspace.pp_conflict c))
            conflicts
      end;
      th.ws <- None;
      th.cont <- None;
      th.status <- Created;
      false)
  | _ ->
    invalid_arg
      (Printf.sprintf "Replica %d: ws_commit for t%d not commit-pending" t.id
         tid)

let do_grant_lock t tid =
  let th = thread t tid in
  match th.status with
  | Lock_blocked { syncid; mutex } ->
    Mutex_table.acquire t.mutexes ~mutex ~tid;
    record t (Trace.Lock_granted { tid; syncid; mutex });
    if observing t then rec_wait_end t th;
    record_acquisition t ~mutex ~th;
    (sched t).on_acquired tid ~syncid ~mutex;
    after_cost_advance t t.config.lock_overhead_ms th
  | _ ->
    invalid_arg
      (Printf.sprintf "Replica %d: grant_lock for t%d not lock-blocked" t.id
         tid)

let do_grant_reacquire t tid =
  let th = thread t tid in
  match th.status with
  | Reacquire_blocked { mutex; count } ->
    Mutex_table.restore t.mutexes ~mutex ~tid ~count;
    record t (Trace.Wait_end { tid; mutex });
    if observing t then rec_wait_end t th;
    record_acquisition t ~mutex ~th;
    (sched t).on_reacquired tid ~mutex;
    after_cost_advance t t.config.lock_overhead_ms th
  | _ ->
    invalid_arg
      (Printf.sprintf "Replica %d: grant_reacquire for t%d not waiting" t.id
         tid)

let do_resume_nested t tid =
  let th = thread t tid in
  match th.status with
  | Nested_ready _ ->
    if observing t then rec_wait_end t th;
    advance t th
  | _ ->
    invalid_arg
      (Printf.sprintf "Replica %d: resume_nested for t%d with no reply" t.id
         tid)

(* ------------------------------------------------------------------ *)

let create ~engine ~id ~cls ~config ?(oracle = Interp.default_oracle)
    ?(obs = Recorder.disabled) ~callbacks ~make_sched () =
  Config.validate config;
  let t =
    { id; engine; cpu = Cpu.create engine ~cores:config.Config.cores; config;
      cls; obj = Object_state.create cls; mutexes = Mutex_table.create ();
      condvars = Condvar.create ();
      trace_rec = Trace.create ~retain:config.Config.trace ();
      threads = Hashtbl.create 64; active = 0; last_uid = min_int;
      sched = None; obs; callbacks; oracle;
      live = true; completed = 0; ws_commits = 0; ws_aborts = 0;
      acquisitions = 0;
      acq_hashes = Hashtbl.create 64; on_quiescent = None; advance_h = 0;
      finish_h = 0; pool_busy = 0 }
  in
  t.advance_h <- Engine.register_handler engine (fun tid -> advance t (thread t tid));
  t.finish_h <- Engine.register_handler engine (fun tid -> finish t (thread t tid));
  let actions =
    { Sched_iface.replica_id = id;
      start_thread = (fun tid -> do_start_thread t tid);
      grant_lock = (fun tid -> do_grant_lock t tid);
      grant_reacquire = (fun tid -> do_grant_reacquire t tid);
      resume_nested = (fun tid -> do_resume_nested t tid);
      ws_begin =
        (fun ~tid ~record_acquisitions ->
          do_ws_begin t ~tid ~record_acquisitions);
      ws_commit = (fun ~tid -> do_ws_commit t tid);
      mutex_owner = (fun mutex -> Mutex_table.owner t.mutexes ~mutex);
      mutex_free_for =
        (fun ~tid ~mutex -> Mutex_table.is_free_for t.mutexes ~mutex ~tid);
      holds_any_mutex = (fun tid -> Mutex_table.holds_any t.mutexes ~tid);
      request_method = (fun tid -> (thread t tid).req.Request.meth);
      request_arg =
        (fun ~tid i ->
          let args = (thread t tid).req.Request.args in
          if i >= 0 && i < Array.length args then Some args.(i) else None);
      self_mutex = (fun () -> Object_state.self_mutex t.obj);
      pool_dispatch =
        (fun ~worker ~tid:_ ->
          if observing t then begin
            t.pool_busy <- t.pool_busy + 1;
            Recorder.incr t.obs "replica.pool.dispatches";
            Recorder.observe t.obs "replica.pool.busy"
              (float_of_int t.pool_busy);
            Recorder.observe t.obs
              (Printf.sprintf "replica.pool.worker%d" worker)
              1.0
          end);
      pool_complete =
        (fun ~worker ~tid:_ ->
          if observing t then begin
            t.pool_busy <- max 0 (t.pool_busy - 1);
            Recorder.observe t.obs "replica.pool.busy"
              (float_of_int t.pool_busy);
            Recorder.observe t.obs
              (Printf.sprintf "replica.pool.worker%d" worker)
              0.0
          end);
      broadcast_control = (fun c -> callbacks.broadcast_control c);
      inject_dummy = (fun () -> callbacks.inject_dummy ());
      schedule = (fun ~delay f -> Engine.schedule engine ~delay f);
      now = (fun () -> Engine.now engine);
      is_leader = (fun () -> callbacks.is_leader ());
      obs }
  in
  let sched = make_sched actions in
  (* With a profiler attached, wrap the decision module so every callback
     is counted and timed under its registry name (observation-only). *)
  let sched =
    match Recorder.profiler obs with
    | Some p -> Sched_iface.profiled p sched
    | None -> sched
  in
  t.sched <- Some sched;
  t

let id t = t.id

let deliver_request t req =
  if t.live then begin
    let tid = req.Request.uid in
    (* Uids are total-order positions, so a replica sees them strictly
       increasing; a repeat (live or finished) is a delivery bug. *)
    if tid <= t.last_uid then
      invalid_arg
        (Printf.sprintf "Replica %d: duplicate or out-of-order request %d"
           t.id tid);
    t.last_uid <- tid;
    t.active <- t.active + 1;
    Hashtbl.add t.threads tid
      { tid; req; cont = None; status = Created; nested_count = 0;
        buffered_replies = []; ws = None };
    if observing t then begin
      Recorder.request_delivered t.obs ~replica:t.id ~uid:tid
        ~meth:req.Request.meth ~client:req.Request.client
        ~client_req:req.Request.client_req ~sent_at:req.Request.sent_at
        ~at:(Engine.now t.engine);
      Recorder.incr t.obs "replica.requests_delivered"
    end;
    (sched t).on_request tid
  end

let nested_reply t ~tid ~call_index =
  if t.live then
    match Hashtbl.find_opt t.threads tid with
    | None -> () (* a late duplicate for a finished thread *)
    | Some th -> (
      match th.status with
      | Nested_blocked { call_index = pending } when pending = call_index ->
        th.status <- Nested_ready { call_index };
        if observing t then begin
          rec_wait_end t th;
          rec_wait_begin t th Recorder.Resume_hold
        end;
        record t (Trace.Nested_end { tid; service = 0 });
        (sched t).on_nested_reply tid
      | _ -> th.buffered_replies <- call_index :: th.buffered_replies)

let deliver_control t ~sender control =
  if t.live then begin
    record t
      (match control with
      | Sched_iface.Lsa_grant { grant_seq; mutex; tid } ->
        Trace.Control_delivered { sender; grant_seq; mutex; tid }
      | Sched_iface.View_change -> Trace.View_change { sender });
    (sched t).on_control ~sender control
  end

let set_alive t b = t.live <- b

let alive t = t.live

let scheduler_name t = (sched t).name

let state_fingerprint t = Object_state.fingerprint t.obj

let state_snapshot t = Object_state.state_snapshot t.obj

let trace t = t.trace_rec

let object_state t = t.obj

let completed_requests t = t.completed

let active_threads t = t.active

let thread_status t tid =
  Option.map (fun th -> th.status) (Hashtbl.find_opt t.threads tid)

let threads_overview t =
  Hashtbl.fold (fun tid th acc -> (tid, th.status) :: acc) t.threads []
  |> List.sort compare

let lock_holders t = Mutex_table.holders t.mutexes

let set_quiescent_hook t hook = t.on_quiescent <- Some hook

let sched_snapshot t = (sched t).snapshot ()

let sched_restore t kv = (sched t).restore kv

let cpu_busy_ms t = Cpu.busy_time t.cpu

let lock_acquisitions t = t.acquisitions

let ws_commits t = t.ws_commits

let ws_aborts t = t.ws_aborts

let mutex_acquisition_fingerprint t =
  let entries =
    Hashtbl.fold (fun m h acc -> (m, h) :: acc) t.acq_hashes []
    |> List.sort compare
  in
  let mix h x = Int64.mul (Int64.logxor h x) 0x100000001B3L in
  List.fold_left
    (fun acc (m, h) -> mix (mix acc (Int64.of_int m)) h)
    0xCBF29CE484222325L entries
