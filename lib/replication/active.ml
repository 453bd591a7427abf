open Detmt_sim
open Detmt_gcs
open Detmt_runtime
module Recorder = Detmt_obs.Recorder

type payload =
  | P_request of {
      client : int;
      client_req : int;
      meth : string;
      args : Detmt_lang.Ast.value array;
      sent_at : float;
      dummy : bool;
    }
  | P_nested_reply of { tid : int; call_index : int }
  | P_control of Sched_iface.control
  | P_barrier of { epoch : int; label : string }
      (* an elastic reconfiguration barrier: totally ordered like any
         request, a no-op for the interpreter — its slot is the agreed point
         every replica transitions the routing epoch at *)

type params = {
  replicas : int;
  scheduler : string;
  workers : int; (* simulated worker-pool width for parallel schedulers *)
  config : Config.t;
  net_latency_ms : float;
  client_latency_ms : float;
  detection_timeout_ms : float;
  faults : Faults.spec option;
  recovery_poll_ms : float;
  shard : int; (* which shard this group serialises; 0 when unsharded *)
  replica_base : int; (* replica ids are [base, base + replicas) *)
  batching : Totem.batching option;
}

let default_params =
  { replicas = 3; scheduler = "mat"; workers = 1; config = Config.default;
    net_latency_ms = 0.5; client_latency_ms = 0.5;
    detection_timeout_ms = 50.0; faults = None; recovery_poll_ms = 1.0;
    shard = 0; replica_base = 0; batching = None }

type checkpoint_sink =
  replica:int -> seq:int -> hash:int64 -> state:(string * int) list -> unit

type t = {
  engine : Engine.t;
  params : params;
  obs : Recorder.t;
  bus : payload Totem.t;
  grp : Group.t;
  cls_instr : Detmt_lang.Class_def.t; (* instrumented class, for recovery *)
  mutable members : Replica.t list;
  mutable dedups : Dedup.t array;
  summary : Detmt_analysis.Predict.class_summary option;
  scheduler : Detmt_sched.Registry.spec;
  instantiate :
    Detmt_sched.Sched_config.t -> Sched_iface.actions -> Sched_iface.sched;
  (* client-side bookkeeping *)
  reply_waiters : (int * int, float * (response_ms:float -> unit)) Hashtbl.t;
      (* (client, client_req) -> (sent_at, callback) *)
  answered : (int * int, unit) Hashtbl.t;
      (* requests already answered at the client: with retries in play a
         late replica reply must never fire the callback a second time *)
  response_times : Detmt_stats.Summary.t;
  mutable replies : int;
  mutable duplicate_client_replies : int;
  mutable reply_times : float list; (* arrival times at clients, reversed *)
  (* nested invocations outstanding: (tid, call_index) -> (service, dur) *)
  outstanding_nested : (int * int, int * float) Hashtbl.t;
  mutable dummy_seq : int;
  (* recovery bookkeeping *)
  mutable log : payload Message.t list; (* every broadcast, newest first *)
  last_delivered : int array; (* per-replica total-order watermark *)
  completed_base : int array;
      (* completed requests folded into each replica's checkpoint sequence
         before its current incarnation started (a recovered replica's own
         counter restarts at zero) *)
  mutable checkpoint_sink : checkpoint_sink option;
  mutable recoveries : int;
  (* elastic reconfiguration: per-replica fold of every delivered barrier
     (seq, epoch, label) — bit-identical across replicas iff every replica
     saw every epoch transition at the same total-order slot *)
  barrier_fp : int64 array;
  barrier_seen : int array;
  (* pooled reply-delivery events: a replica's send_reply posts one typed
     event whose argument is a pool slot holding (from_replica, request),
     so the per-reply client-latency hop allocates nothing *)
  mutable rp_from : int array; (* sender replica; freelist link when free *)
  mutable rp_req : Request.t array;
  mutable rp_free : int;
  mutable rp_cap : int;
  mutable reply_h : Engine.handler_id;
}

let blank_request = Request.dummy ~uid:(-1) ~sent_at:0.0

let rp_grow t =
  let cap = max 16 (2 * t.rp_cap) in
  let from = Array.make cap (-1) and req = Array.make cap blank_request in
  Array.blit t.rp_from 0 from 0 t.rp_cap;
  Array.blit t.rp_req 0 req 0 t.rp_cap;
  for i = t.rp_cap to cap - 2 do
    from.(i) <- i + 1
  done;
  from.(cap - 1) <- -1;
  t.rp_free <- t.rp_cap;
  t.rp_from <- from;
  t.rp_req <- req;
  t.rp_cap <- cap

let rp_alloc t =
  if t.rp_free < 0 then rp_grow t;
  let s = t.rp_free in
  t.rp_free <- t.rp_from.(s);
  s

let leader_id t = Group.leader t.grp

let is_leader t id = leader_id t = id

(* Replica ids live in [base, base + replicas); per-replica arrays are
   indexed by the id's offset into that window. *)
let slot t id = id - t.params.replica_base

(* Every broadcast goes through here so recovery can replay the suffix a
   rejoining replica missed. *)
let bcast t ~sender ~kind payload =
  Totem.count_kind t.bus kind;
  let seq = Totem.broadcast t.bus ~sender payload in
  t.log <-
    { Message.seq; sender; sent_at = Engine.now t.engine; payload } :: t.log;
  seq

(* Every replica registers the outstanding call (so a view change can
   re-issue calls the dead invoker never completed); only the invoker
   schedules the external service. *)
let register_nested t ~tid ~call_index ~service ~duration =
  if not (Hashtbl.mem t.outstanding_nested (tid, call_index)) then
    Hashtbl.replace t.outstanding_nested (tid, call_index) (service, duration)

let perform_nested t ~by ~tid ~call_index ~service ~duration =
  register_nested t ~tid ~call_index ~service ~duration;
  Engine.schedule t.engine ~delay:duration (fun () ->
      (* Do not answer twice, and a replica that died while the external call
         was in flight cannot spread the reply (the new leader re-issues). *)
      if
        Hashtbl.mem t.outstanding_nested (tid, call_index)
        && Group.alive t.grp by
      then
        ignore
          (bcast t ~sender:(-2) ~kind:"nested-reply"
             (P_nested_reply { tid; call_index })))

let inject_dummy t ~from_replica =
  (* Every replica's PDS timer fires; only the leader broadcasts so the
     group sees each filler exactly once. *)
  if is_leader t from_replica then begin
    t.dummy_seq <- t.dummy_seq + 1;
    ignore
      (bcast t ~sender:(-1) ~kind:"pds-dummy"
         (P_request
            { client = -1; client_req = t.dummy_seq; meth = "__dummy";
              args = [||]; sent_at = Engine.now t.engine; dummy = true }))
  end

let on_first_reply t ~from_replica (req : Request.t) =
  let key = (req.client, req.client_req) in
  match Hashtbl.find_opt t.reply_waiters key with
  | None -> () (* later replicas' replies for an already-answered request *)
  | Some (sent_at, callback) ->
    Hashtbl.remove t.reply_waiters key;
    if Hashtbl.mem t.answered key then
      (* A retry re-registered the waiter after the answer was delivered;
         firing the callback again would violate exactly-once. *)
      t.duplicate_client_replies <- t.duplicate_client_replies + 1
    else begin
      Hashtbl.add t.answered key ();
      let response_ms =
        Engine.now t.engine +. t.params.client_latency_ms -. sent_at
      in
      Detmt_stats.Summary.add t.response_times response_ms;
      t.replies <- t.replies + 1;
      t.reply_times <-
        (Engine.now t.engine +. t.params.client_latency_ms) :: t.reply_times;
      if Recorder.enabled t.obs then begin
        Recorder.reply_observed t.obs ~replica:from_replica
          ~uid:req.Request.uid ~client:req.client ~client_req:req.client_req
          ~response_ms;
        Recorder.incr t.obs "active.replies";
        Recorder.observe t.obs "active.response_ms" response_ms;
        Recorder.set_gauge t.obs "active.inflight"
          (float_of_int (Hashtbl.length t.reply_waiters))
      end;
      callback ~response_ms
    end

let make_replica t ~engine ~cls ~id =
  let callbacks =
    { Replica.send_reply =
        (fun req ->
          let s = rp_alloc t in
          t.rp_from.(s) <- id;
          t.rp_req.(s) <- req;
          Engine.post engine ~delay:t.params.client_latency_ms t.reply_h s);
      do_nested =
        (fun ~tid ~call_index ~service ~duration ->
          register_nested t ~tid ~call_index ~service ~duration;
          if is_leader t id then
            perform_nested t ~by:id ~tid ~call_index ~service ~duration);
      broadcast_control =
        (fun control ->
          ignore (bcast t ~sender:id ~kind:"control" (P_control control)));
      inject_dummy = (fun () -> inject_dummy t ~from_replica:id);
      is_leader = (fun () -> is_leader t id) }
  in
  let make_sched actions =
    t.instantiate
      (Detmt_sched.Sched_config.make ~runtime:t.params.config
         ?summary:t.summary ~obs:t.obs ~shard:t.params.shard
         ~workers:t.params.workers t.scheduler.name)
      actions
  in
  let r =
    Replica.create ~engine ~id ~cls ~config:t.params.config ~callbacks
      ~make_sched ~obs:t.obs ()
  in
  (* Divergence checkpoints at local quiescence: the state is then a pure
     function of the delivered request prefix, and the checkpoint sequence
     (base + locally completed) lines up across replicas — including a
     recovered one, whose base absorbs the donor's completed count. *)
  Replica.set_quiescent_hook r (fun ~completed ->
      if Replica.alive r then begin
        let seq = t.completed_base.(slot t id) + completed in
        if Recorder.enabled t.obs then
          Recorder.checkpoint t.obs ~replica:id ~seq
            ~at:(Engine.now t.engine);
        match t.checkpoint_sink with
        | Some sink ->
          sink ~replica:id ~seq
            ~hash:(Replica.state_fingerprint r)
            ~state:(Replica.state_snapshot r)
        | None -> ()
      end);
  r

let deliver t replica (msg : payload Message.t) =
  let id = Replica.id replica in
  t.last_delivered.(slot t id) <- msg.seq;
  match msg.payload with
  | P_request { client; client_req; meth; args; sent_at; dummy } ->
    if not (Dedup.mark t.dedups.(slot t id) ~client ~request:client_req)
    then begin
      let req =
        { Request.uid = msg.seq; client; client_req; meth; args; sent_at;
          dummy }
      in
      Replica.deliver_request replica req
    end
  | P_nested_reply { tid; call_index } ->
    Hashtbl.remove t.outstanding_nested (tid, call_index);
    Replica.nested_reply replica ~tid ~call_index
  | P_control control -> Replica.deliver_control replica ~sender:msg.sender control
  | P_barrier { epoch; label } ->
    let s = slot t id in
    t.barrier_seen.(s) <- t.barrier_seen.(s) + 1;
    let mix h v = Int64.add (Int64.mul h 1000003L) (Int64.of_int v) in
    t.barrier_fp.(s) <-
      mix (mix (mix t.barrier_fp.(s) msg.seq) epoch) (Hashtbl.hash label)

let create ?(obs = Recorder.disabled)
    ?(instantiate = Detmt_sched.Registry.instantiate) ~engine ~cls
    ~(params : params) () =
  (* Continuous telemetry: window metrics by the virtual clock, snapshot
     the event-queue depth once per window, and (with a profiler attached)
     time the engine's pop/dispatch phases.  All observation-only. *)
  if Recorder.enabled obs then begin
    Recorder.set_clock obs (fun () -> Engine.now engine);
    Recorder.set_depth_probe obs (Some (fun () -> Engine.pending engine))
  end;
  (match Recorder.profiler obs with
  | Some p -> Detmt_obs.Profile.attach_engine p engine
  | None -> ());
  let scheduler = Detmt_sched.Registry.find_exn params.scheduler in
  let cls', summary =
    if scheduler.needs_prediction then
      let c, s = Detmt_transform.Transform.predictive cls in
      (c, Some s)
    else (Detmt_transform.Transform.basic cls, None)
  in
  if params.replica_base < 0 then
    invalid_arg "Active.create: replica_base < 0";
  let latency ~sender:_ ~dest:_ = params.net_latency_ms in
  let faults = Option.map Faults.create params.faults in
  let bus =
    Totem.create ~latency ?faults ~obs ?batching:params.batching engine
  in
  let members =
    List.init params.replicas (fun i -> params.replica_base + i)
  in
  let grp =
    Group.create engine ~members
      ~detection_timeout_ms:params.detection_timeout_ms
  in
  let t =
    { engine; params; obs; bus; grp; cls_instr = cls'; members = []; summary;
      scheduler; instantiate;
      dedups = Array.init params.replicas (fun _ -> Dedup.create ());
      reply_waiters = Hashtbl.create 256; answered = Hashtbl.create 256;
      response_times = Detmt_stats.Summary.create (); replies = 0;
      duplicate_client_replies = 0; reply_times = [];
      outstanding_nested = Hashtbl.create 64; dummy_seq = 0;
      log = []; last_delivered = Array.make params.replicas (-1);
      completed_base = Array.make params.replicas 0;
      checkpoint_sink = None; recoveries = 0;
      barrier_fp = Array.make params.replicas 0x9E3779B97F4A7C15L;
      barrier_seen = Array.make params.replicas 0;
      rp_from = [||]; rp_req = [||]; rp_free = -1; rp_cap = 0; reply_h = 0 }
  in
  t.reply_h <-
    Engine.register_handler engine (fun s ->
        let from = t.rp_from.(s) and req = t.rp_req.(s) in
        (* clear the slot before dispatch so the request is collectable *)
        t.rp_req.(s) <- blank_request;
        t.rp_from.(s) <- t.rp_free;
        t.rp_free <- s;
        on_first_reply t ~from_replica:from req);
  let replicas =
    List.map (fun id -> make_replica t ~engine ~cls:cls' ~id) members
  in
  t.members <- replicas;
  List.iter
    (fun r ->
      Totem.subscribe bus ~id:(Replica.id r) (fun msg -> deliver t r msg))
    replicas;
  (* On a failure view the new leader re-issues outstanding nested calls the
     dead leader may never have completed.  Join views change nothing for
     the survivors: leadership is seniority-ordered, so a rejoining replica
     never takes over, and re-issuing nested calls would duplicate external
     side effects. *)
  Group.on_view_change grp (fun view ->
      match view.Group.cause with
      | Group.Initial | Group.Join _ -> ()
      | Group.Failure _ ->
        (* Tell every surviving scheduler about the new view (a promoted LSA
           leader must drain the old leader's published decisions and take
           over); then re-issue nested calls the dead invoker left behind. *)
        List.iter
          (fun r ->
            if Replica.alive r then
              Replica.deliver_control r ~sender:(-1)
                Detmt_runtime.Sched_iface.View_change)
          t.members;
        let pending =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.outstanding_nested []
          |> List.sort compare
        in
        List.iter
          (fun ((tid, call_index), (service, duration)) ->
            perform_nested t ~by:view.Group.leader ~tid ~call_index ~service
              ~duration)
          pending);
  t

let submit ?on_ordered t ~client ~client_req ~meth ~args ~on_reply =
  let key = (client, client_req) in
  (* A retry that raced with its own answer must not re-register a waiter:
     the next replica reply would fire the callback a second time. *)
  if not (Hashtbl.mem t.answered key) then begin
    let sent_at = Engine.now t.engine in
    Hashtbl.replace t.reply_waiters key (sent_at, on_reply);
    if Recorder.enabled t.obs then
      Recorder.set_gauge t.obs "active.inflight"
        (float_of_int (Hashtbl.length t.reply_waiters));
    (* client -> sequencer latency before the totally-ordered broadcast *)
    Engine.schedule t.engine ~delay:t.params.client_latency_ms (fun () ->
        if Recorder.enabled t.obs then
          Recorder.request_broadcast t.obs ~client ~client_req
            ~at:(Engine.now t.engine);
        let seq =
          bcast t ~sender:(1000 + client) ~kind:"request"
            (P_request { client; client_req; meth; args; sent_at;
                         dummy = false })
        in
        (* Fires once the request holds a slot in this group's total order —
           the hook cross-shard coordination hangs its second phase on. *)
        match on_ordered with Some f -> f ~seq | None -> ())
  end

let engine t = t.engine

let replicas t = t.members

let live_replicas t = List.filter Replica.alive t.members

let group t = t.grp

let kill_replica t id =
  List.iter
    (fun r -> if Replica.id r = id then Replica.set_alive r false)
    t.members;
  Totem.set_alive t.bus id false;
  Group.kill t.grp id

(* ------------------------------------------------------------------ *)
(* Crash recovery: rejoin through a group view change with a state
   transfer from a live donor.

   The donor is sampled at local quiescence, when its whole state — object
   fields, mutex-reference fields, scheduler bookkeeping — is a pure
   function of the delivered prefix of the total order (every request up to
   its watermark has fully executed, including nested calls and, under LSA,
   every grant at or below the watermark: per-subscriber FIFO delivery
   makes the watermark a prefix).  The suffix (logged messages past the
   watermark) is replayed to the new incarnation in sequence order before
   any post-join bus delivery can arrive, so the recovered replica observes
   exactly the donor's total order. *)

let recover_replica t ?at id =
  if not (List.exists (fun r -> Replica.id r = id) t.members) then
    invalid_arg (Printf.sprintf "Active.recover_replica: unknown replica %d" id);
  let begin_at = Option.value ~default:(Engine.now t.engine) at in
  let perform donor =
    let donor_id = Replica.id donor in
    let watermark = t.last_delivered.(slot t donor_id) in
    let state = Replica.state_snapshot donor in
    let mutex_fields =
      Object_state.mutex_field_snapshot (Replica.object_state donor)
    in
    let sched_state = Replica.sched_snapshot donor in
    let completed =
      t.completed_base.(slot t donor_id) + Replica.completed_requests donor
    in
    (* Fresh incarnation; the old Replica.t stays dead and inert. *)
    let r' = make_replica t ~engine:t.engine ~cls:t.cls_instr ~id in
    let obj = Replica.object_state r' in
    List.iter (fun (f, v) -> Object_state.set_state obj f v) state;
    List.iter (fun (f, v) -> Object_state.set_mutex_field obj f v) mutex_fields;
    Replica.sched_restore r' sched_state;
    t.members <-
      List.map (fun r -> if Replica.id r = id then r' else r) t.members;
    t.dedups.(slot t id) <- Dedup.copy t.dedups.(slot t donor_id);
    t.completed_base.(slot t id) <- completed;
    t.last_delivered.(slot t id) <- watermark;
    (* the donor's delivered prefix includes its barriers; the suffix replay
       below redelivers any past the watermark *)
    t.barrier_fp.(slot t id) <- t.barrier_fp.(slot t donor_id);
    t.barrier_seen.(slot t id) <- t.barrier_seen.(slot t donor_id);
    Totem.resubscribe t.bus ~id (fun msg -> deliver t r' msg);
    (* Everything broadcast so far is covered by snapshot + replay; stale
       in-flight copies addressed to the old incarnation must not leak in. *)
    (match t.log with
    | [] -> ()
    | newest :: _ -> Totem.advance_watermark t.bus ~id ~seq:newest.Message.seq);
    Group.join t.grp id;
    let suffix =
      List.filter
        (fun (m : payload Message.t) -> m.seq > watermark)
        (List.rev t.log)
    in
    (* One network hop later, before any same-or-later bus arrival: events
       scheduled for the same instant run in scheduling order. *)
    Engine.schedule t.engine ~delay:t.params.net_latency_ms (fun () ->
        List.iter (fun m -> deliver t r' m) suffix);
    t.recoveries <- t.recoveries + 1;
    if Recorder.enabled t.obs then begin
      Recorder.incr t.obs "active.recoveries";
      Recorder.observe t.obs "active.recovery.donor_wait_ms"
        (Engine.now t.engine -. begin_at);
      Recorder.observe t.obs "active.recovery.replayed_msgs"
        (float_of_int (List.length suffix))
    end
  in
  let rec attempt () =
    if List.exists (fun r -> Replica.id r = id && Replica.alive r) t.members
    then () (* already live *)
    else
      match
        List.find_opt
          (fun r -> Replica.alive r && Replica.id r <> id)
          t.members
      with
      | None ->
        failwith
          (Printf.sprintf
             "Active.recover_replica: no live donor for replica %d" id)
      | Some donor ->
        if Replica.active_threads donor > 0 then
          (* Wait for donor quiescence — the only moment the snapshot is a
             pure function of the delivered prefix. *)
          Engine.schedule t.engine ~delay:t.params.recovery_poll_ms attempt
        else perform donor
  in
  Engine.schedule_at t.engine ~time:begin_at attempt

let set_checkpoint_sink t sink = t.checkpoint_sink <- Some sink

let recoveries t = t.recoveries

(* ------------------------------------------------------------------ *)
(* Elastic reconfiguration support ({!Reconfig}).

   A barrier is a totally-ordered no-op: its slot is the agreed point of an
   epoch transition, and every replica folds (seq, epoch, label) into a
   per-replica fingerprint so tests can assert the transition was observed
   bit-identically.  The state-transfer helpers below reuse the recovery
   invariant: they may only run when the donor group is quiescent, i.e. its
   whole state is a pure function of the delivered prefix. *)

let order_barrier t ~epoch ~label ~on_ordered =
  let seq =
    bcast t ~sender:(-3) ~kind:"barrier" (P_barrier { epoch; label })
  in
  if Recorder.enabled t.obs then Recorder.incr t.obs "active.barriers";
  on_ordered ~seq

let barrier_fingerprints t =
  List.filter_map
    (fun r ->
      if Replica.alive r then
        Some (Replica.id r, t.barrier_fp.(slot t (Replica.id r)),
              t.barrier_seen.(slot t (Replica.id r)))
      else None)
    t.members

let quiescent t =
  List.for_all
    (fun r -> (not (Replica.alive r)) || Replica.active_threads r = 0)
    t.members
  && List.exists Replica.alive t.members

let lowest_live_donor t =
  match List.find_opt Replica.alive t.members with
  | Some r -> r
  | None -> failwith "Active: no live replica to donate state"

let donor_state t = Replica.state_snapshot (lowest_live_donor t)

(* Fold a retiring group's final state fields into every live replica —
   deterministic because it runs at a drained barrier, between any two
   delivered requests, identically on all replicas. *)
let absorb_state t ~delta =
  List.iter
    (fun r ->
      if Replica.alive r then
        let obj = Replica.object_state r in
        List.iter (fun (f, v) -> Object_state.update_state obj f v) delta)
    t.members

let merge_dedups t ~from =
  let donor = from.dedups.(slot from (Replica.id (lowest_live_donor from))) in
  Array.iter (fun d -> Dedup.merge ~into:d donor) t.dedups;
  (* The ledger now covers the retiree's dummy fillers (client -1); the
     survivor's own counter must clear them or its future fillers would be
     suppressed as duplicates and PDS rounds could never refill. *)
  t.dummy_seq <- max t.dummy_seq from.dummy_seq

(* Bootstrap a freshly created, traffic-free group from a quiescent donor
   group — the split / hot-swap state transfer.  Always carried: the
   duplicate-suppression ledger (a re-routed retry of an executed request
   must stay suppressed) and the mutex-reference fields.  [carry_state]
   additionally clones the object state fields and the donor's completed
   count (a hot swap continues the same logical group; a split starts its
   own per-group counters at zero and folds them back at merge).  Replica
   aliveness is mirrored so a swap cannot resurrect a crashed replica. *)
let bootstrap t ~from ~carry_state =
  if t.log <> [] || t.replies > 0 then
    invalid_arg "Active.bootstrap: target group already carried traffic";
  let donor = lowest_live_donor from in
  let donor_slot = slot from (Replica.id donor) in
  let state = Replica.state_snapshot donor in
  let mutex_fields =
    Object_state.mutex_field_snapshot (Replica.object_state donor)
  in
  let completed =
    from.completed_base.(donor_slot) + Replica.completed_requests donor
  in
  List.iter
    (fun r ->
      let obj = Replica.object_state r in
      List.iter (fun (f, v) -> Object_state.set_mutex_field obj f v)
        mutex_fields;
      if carry_state then begin
        List.iter (fun (f, v) -> Object_state.set_state obj f v) state;
        t.completed_base.(slot t (Replica.id r)) <- completed
      end)
    t.members;
  Array.iteri
    (fun i _ -> t.dedups.(i) <- Dedup.copy from.dedups.(donor_slot))
    t.dedups;
  (* The inherited ledger covers the donor's dummy fillers (client -1), so
     the filler counter must continue past them — restarting at zero would
     get every new filler dropped as a duplicate, wedging PDS rounds. *)
  t.dummy_seq <- from.dummy_seq;
  (* mirror crashes offset-for-offset so the group views line up *)
  List.iteri
    (fun i r ->
      match List.nth_opt from.members i with
      | Some old when not (Replica.alive old) -> kill_replica t (Replica.id r)
      | _ -> ())
    t.members

let faults t = Totem.faults t.bus

let suppressed_duplicates t = Totem.suppressed_duplicates t.bus

let watermark_suppressed t = Totem.watermark_suppressed t.bus

let set_delivery_oracle t oracle = Totem.set_delivery_oracle t.bus oracle

let set_flush_oracle t oracle = Totem.set_flush_oracle t.bus oracle

(* Order-sensitive hash of the broadcast log: seq, sender and payload
   identity of every message, in total order.  Two runs with equal order
   fingerprints delivered the same messages in the same order, so any reply
   or state difference between them is a scheduler-determinism bug rather
   than a shifted total order. *)
let order_fingerprint t =
  let mix h v = Int64.add (Int64.mul h 1000003L) (Int64.of_int v) in
  let payload_id = function
    | P_request r -> Hashtbl.hash (0, r.client, r.client_req, r.meth, r.dummy)
    | P_nested_reply r -> Hashtbl.hash (1, r.tid, r.call_index)
    | P_control c -> Hashtbl.hash (2, c)
    | P_barrier b -> Hashtbl.hash (3, b.epoch, b.label)
  in
  List.fold_left
    (fun h (m : payload Message.t) ->
      mix
        (mix (mix h m.Message.seq) m.Message.sender)
        (payload_id m.Message.payload))
    0x2545F4914F6CDD1DL (List.rev t.log)

let response_times t = t.response_times

let replies_received t = t.replies

let outstanding_requests t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.reply_waiters []
  |> List.filter (fun k -> not (Hashtbl.mem t.answered k))
  |> List.sort compare

let duplicate_client_replies t = t.duplicate_client_replies

let reply_times t = List.rev t.reply_times

let message_stats t = Totem.kind_counts t.bus

let broadcasts t = Totem.broadcasts t.bus

let wire_batches t = Totem.wire_batches t.bus

let shard t = t.params.shard

let params t = t.params

let summary t = t.summary

let scheduler_name t = t.scheduler.name
