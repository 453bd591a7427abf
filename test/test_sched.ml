(* Fine-grained semantic tests for each decision module, driven through a
   small (1- or 3-replica) system with hand-submitted requests. *)

open Detmt_sim
open Detmt_lang
open Detmt_replication

let b = Alcotest.bool

(* A class with three start methods used by most scenarios:
   - "locked":    lock(arg0) { compute 10 }            — work under a lock
   - "pure":      compute 10                           — no locks at all
   - "remote":    nested call, 10 ms                   — idle time only
   - "tail":      lock(arg0) { compute 1 }; compute 10 — Figure 2 shape *)
let scenario_cls =
  let open Builder in
  Builder.cls ~cname:"S" ~state_fields:[ "st" ]
    [ meth "locked" ~params:1
        [ sync (arg 0) [ compute 10.0; state_incr "st" 1 ] ];
      meth "pure" [ compute 10.0 ];
      meth "remote" [ nested ~service:0 10.0 ];
      meth "tail" ~params:1
        [ sync (arg 0) [ compute 1.0; state_incr "st" 1 ]; compute 10.0 ];
    ]

(* Build a system, submit the given requests at t=0, run to completion and
   return (makespan, system).  Zero scheduling overheads keep the arithmetic
   of the assertions exact.  Tests that read [Trace.events] pass
   [~trace:true] so the replicas retain the event list. *)
let run_requests ?(replicas = 1) ?(trace = false) ~scheduler reqs =
  let engine = Engine.create () in
  let config =
    { Detmt_runtime.Config.default with
      lock_overhead_ms = 0.0; bookkeeping_overhead_ms = 0.0;
      reply_build_ms = 0.0; trace }
  in
  let params =
    { Active.default_params with
      replicas; scheduler; config; net_latency_ms = 0.0;
      client_latency_ms = 0.0 }
  in
  let system = Active.create ~engine ~cls:scenario_cls ~params () in
  let last_reply = ref 0.0 in
  List.iteri
    (fun i (meth, args) ->
      Active.submit system ~client:0 ~client_req:i ~meth ~args
        ~on_reply:(fun ~response_ms ->
          last_reply := Float.max !last_reply response_ms))
    reqs;
  Engine.run engine;
  (!last_reply, system)

let locked m = ("locked", [| Ast.Vmutex m |])

let tail m = ("tail", [| Ast.Vmutex m |])

let feq = Alcotest.(check (float 1e-6))

(* ------------------------------- SEQ -------------------------------- *)

let test_seq_serialises_everything () =
  let makespan, _ = run_requests ~scheduler:"seq" [ locked 1; locked 2 ] in
  feq "two disjoint requests run back to back" 20.0 makespan

let test_seq_wastes_nested_idle () =
  let makespan, _ =
    run_requests ~scheduler:"seq" [ ("remote", [||]); ("remote", [||]) ]
  in
  feq "idle time not reused" 20.0 makespan

(* ------------------------------- SAT -------------------------------- *)

let test_sat_single_active_thread () =
  let makespan, _ =
    run_requests ~scheduler:"sat" [ ("pure", [||]); ("pure", [||]) ]
  in
  feq "pure computations serialise under SAT" 20.0 makespan

let test_sat_uses_nested_idle () =
  let makespan, _ =
    run_requests ~scheduler:"sat" [ ("remote", [||]); ("remote", [||]) ]
  in
  feq "nested idle time reused" 10.0 makespan

(* ------------------------------- MAT -------------------------------- *)

let test_mat_parallel_pure_computations () =
  let makespan, _ =
    run_requests ~scheduler:"mat" [ ("pure", [||]); ("pure", [||]) ]
  in
  feq "secondaries compute in parallel" 10.0 makespan

let test_mat_pessimism_on_disjoint_locks () =
  (* The paper's criticism: the secondary blocks although the mutexes do not
     conflict. *)
  let makespan, _ = run_requests ~scheduler:"mat" [ locked 1; locked 2 ] in
  feq "disjoint locks still serialise" 20.0 makespan

let test_mat_holds_primacy_through_tail () =
  (* Figure 2(a): primacy is only handed over at termination. *)
  let makespan, _ = run_requests ~scheduler:"mat" [ tail 1; tail 2 ] in
  feq "second request waits for the first one's tail" 22.0 makespan

(* ----------------------------- MAT-LL ------------------------------- *)

let test_mat_ll_hands_over_after_last_lock () =
  (* Figure 2(b): primacy moves right after the last unlock; the 10 ms
     tails overlap. *)
  let makespan, _ = run_requests ~scheduler:"mat-ll" [ tail 1; tail 2 ] in
  feq "tails overlap" 12.0 makespan

let test_mat_ll_no_worse_when_shared () =
  let makespan, _ = run_requests ~scheduler:"mat-ll" [ tail 1; tail 1 ] in
  feq "shared mutex still serialises the critical sections" 12.0 makespan

(* ------------------------------ PMAT -------------------------------- *)

let test_pmat_parallel_disjoint_locks () =
  (* Figure 3(b): announced, non-conflicting locks are granted
     concurrently. *)
  let makespan, _ = run_requests ~scheduler:"pmat" [ locked 1; locked 2 ] in
  feq "disjoint locks run in parallel" 10.0 makespan

let test_pmat_serialises_conflicts () =
  let makespan, _ = run_requests ~scheduler:"pmat" [ locked 1; locked 1 ] in
  feq "conflicting locks serialise" 20.0 makespan

let test_pmat_conflict_order_is_queue_order () =
  let _, system =
    run_requests ~trace:true ~scheduler:"pmat" [ locked 5; locked 5 ]
  in
  match Active.replicas system with
  | [ r ] ->
    let locks =
      List.filter_map
        (function
          | Trace.Lock_granted { tid; _ } -> Some tid
          | _ -> None)
        (Trace.events (Detmt_runtime.Replica.trace r))
    in
    Alcotest.(check (list int)) "queue (arrival) order" [ 0; 1 ] locks
  | _ -> Alcotest.fail "one replica expected"

(* Scheduler actions for driving a decision module by hand: every mutex is
   free, starts are no-ops and lock grants are recorded. *)
let stub_actions ~granted =
  { Detmt_runtime.Sched_iface.replica_id = 0;
    start_thread = ignore;
    grant_lock = (fun tid -> granted := tid :: !granted);
    grant_reacquire = ignore;
    resume_nested = ignore;
    ws_begin = (fun ~tid:_ ~record_acquisitions:_ -> ());
    ws_commit = (fun ~tid:_ -> true);
    mutex_owner = (fun _ -> None);
    mutex_free_for = (fun ~tid:_ ~mutex:_ -> true);
    holds_any_mutex = (fun _ -> false);
    request_method = (fun _ -> "locked");
    request_arg = (fun ~tid:_ _ -> None);
    self_mutex = (fun () -> 1_000_000);
    pool_dispatch = (fun ~worker:_ ~tid:_ -> ());
    pool_complete = (fun ~worker:_ ~tid:_ -> ());
    broadcast_control = ignore;
    inject_dummy = (fun () -> ());
    schedule = (fun ~delay:_ _ -> ());
    now = (fun () -> 0.0);
    is_leader = (fun () -> true);
    obs = Detmt_obs.Recorder.disabled }

(* The pass's stop rule on the queue [A; B; C], all running "locked": A is
   predicted with future set {m1} (announced), B is unpredicted (nothing
   announced), C requests m2.  Only queue predecessors gate a request, so
   the first unpredicted thread is itself still a candidate; everything
   behind it waits. *)
let test_pmat_stop_rule () =
  let summary = snd (Detmt_transform.Transform.predictive scenario_cls) in
  let syncid =
    match Detmt_analysis.Predict.find_method summary "locked" with
    | Some { Detmt_analysis.Predict.sids = [ i ]; _ } ->
      i.Detmt_analysis.Predict.sid
    | _ -> Alcotest.fail "one sync id expected in \"locked\""
  in
  let m1 = 1 and m2 = 2 and m3 = 3 in
  let ta, tb, tc = (1, 2, 3) in
  let setup () =
    let granted = ref [] in
    let sched =
      Detmt_sched.Decision.instantiate
        (module Detmt_sched.Pmat.Base)
        ~config:Detmt_runtime.Config.default ~summary:(Some summary)
        (stub_actions ~granted)
    in
    List.iter sched.on_request [ ta; tb; tc ];
    sched.on_lockinfo ta ~syncid ~mutex:m1;
    (sched, granted)
  in
  let sched, granted = setup () in
  sched.on_lock tc ~syncid ~mutex:m2;
  Alcotest.(check (list int)) "C behind unpredicted B stays deferred" []
    !granted;
  sched.on_lock tb ~syncid ~mutex:m3;
  Alcotest.(check (list int))
    "unpredicted B on a free, unmarked mutex is granted; C still waits"
    [ tb ] !granted;
  let sched, granted = setup () in
  sched.on_lock tb ~syncid ~mutex:m1;
  Alcotest.(check (list int)) "B on A's future mutex stays deferred" []
    !granted

(* ------------------------------- PDS -------------------------------- *)

let test_pds_round_opens_when_batch_arrives () =
  let engine = Engine.create () in
  let config =
    { Detmt_runtime.Config.default with
      lock_overhead_ms = 0.0; bookkeeping_overhead_ms = 0.0;
      reply_build_ms = 0.0; pds_batch = 2; pds_dummy_timeout_ms = 100.0 }
  in
  let params =
    { Active.default_params with
      replicas = 1; scheduler = "pds"; config; net_latency_ms = 0.0;
      client_latency_ms = 0.0 }
  in
  let system = Active.create ~engine ~cls:scenario_cls ~params () in
  let replies = ref [] in
  List.iteri
    (fun i req ->
      Active.submit system ~client:0 ~client_req:i ~meth:(fst req)
        ~args:(snd req) ~on_reply:(fun ~response_ms ->
          replies := response_ms :: !replies))
    [ locked 1; locked 2 ];
  Engine.run engine;
  (* Both arrive instantly; the round grants both (no conflict) in
     parallel: makespan 10, no dummies. *)
  feq "batch of two decides immediately" 10.0
    (List.fold_left Float.max 0.0 !replies);
  Alcotest.check b "no dummies needed" true
    (List.assoc_opt "pds-dummy" (Active.message_stats system) = None)

let test_pds_dummy_fills_partial_batch () =
  let engine = Engine.create () in
  let config =
    { Detmt_runtime.Config.default with
      pds_batch = 4; pds_dummy_timeout_ms = 5.0 }
  in
  let params =
    { Active.default_params with replicas = 1; scheduler = "pds"; config;
      net_latency_ms = 0.0; client_latency_ms = 0.0 }
  in
  let system = Active.create ~engine ~cls:scenario_cls ~params () in
  let done_ = ref false in
  Active.submit system ~client:0 ~client_req:0 ~meth:"locked"
    ~args:[| Ast.Vmutex 1 |]
    ~on_reply:(fun ~response_ms:_ -> done_ := true);
  Engine.run engine;
  Alcotest.check b "request eventually processed" true !done_;
  Alcotest.check b "dummies were broadcast" true
    (match List.assoc_opt "pds-dummy" (Active.message_stats system) with
    | Some n -> n > 0
    | None -> false)

(* ------------------------------- LSA -------------------------------- *)

let test_lsa_leader_broadcasts_grants () =
  let _, system =
    run_requests ~replicas:3 ~scheduler:"lsa" [ locked 1; locked 1 ]
  in
  match List.assoc_opt "control" (Active.message_stats system) with
  | Some n -> Alcotest.(check int) "one grant message per acquisition" 2 n
  | None -> Alcotest.fail "no control messages broadcast"

let test_lsa_followers_apply_leader_order () =
  let _, system =
    run_requests ~replicas:3 ~trace:true ~scheduler:"lsa"
      [ locked 7; locked 7; locked 7 ]
  in
  let owners r =
    List.filter_map
      (function
        | Trace.Lock_granted { tid; mutex = 7; _ } -> Some tid
        | _ -> None)
      (Trace.events (Detmt_runtime.Replica.trace r))
  in
  match Active.replicas system with
  | [ leader; f1; f2 ] ->
    Alcotest.(check (list int)) "follower 1 matches leader" (owners leader)
      (owners f1);
    Alcotest.(check (list int)) "follower 2 matches leader" (owners leader)
      (owners f2)
  | _ -> Alcotest.fail "three replicas expected"

let test_lsa_greedy_beats_mat_on_disjoint () =
  let lsa, _ = run_requests ~replicas:3 ~scheduler:"lsa" [ locked 1; locked 2 ] in
  let mat, _ = run_requests ~replicas:3 ~scheduler:"mat" [ locked 1; locked 2 ] in
  Alcotest.check b "leader schedules without restrictions" true (lsa < mat)

(* ------------------------------ Freefall ---------------------------- *)

let test_freefall_completes () =
  let makespan, _ =
    run_requests ~scheduler:"freefall" [ locked 1; locked 1; locked 1 ]
  in
  feq "contended locks serialise" 30.0 makespan

(* ------------------------------ Registry ---------------------------- *)

let test_registry () =
  Alcotest.(check int) "fifteen schedulers" 15
    (List.length Detmt_sched.Registry.all);
  Alcotest.(check (list string)) "figure 1 set"
    [ "seq"; "sat"; "lsa"; "pds"; "mat" ]
    Detmt_sched.Registry.paper_figure1;
  Alcotest.check b "predictive flags" true
    (let spec name = Detmt_sched.Registry.find_exn name in
     (spec "pmat").needs_prediction
     && (spec "mat-ll").needs_prediction
     && (spec "psat").needs_prediction
     && (spec "ppds").needs_prediction
     && (spec "cgs").needs_prediction
     && (spec "pcgs").needs_prediction
     && (spec "wss").needs_prediction
     && (spec "cgs+ws").needs_prediction
     && (not (spec "mat").needs_prediction)
     && (not (spec "sat").needs_prediction)
     && not (spec "pds").needs_prediction);
  Alcotest.(check (list string)) "parallel decision modules"
    [ "cgs"; "pcgs"; "wss"; "cgs+ws" ]
    Detmt_sched.Registry.parallel_decisions;
  Alcotest.check b "predicted variants are deterministic" true
    ((Detmt_sched.Registry.find_exn "psat").deterministic
    && (Detmt_sched.Registry.find_exn "ppds").deterministic);
  Alcotest.check b "freefall flagged nondeterministic" false
    (Detmt_sched.Registry.find_exn "freefall").deterministic;
  Alcotest.check b "unknown name raises" true
    (try
       ignore (Detmt_sched.Registry.find_exn "nope");
       false
     with Invalid_argument _ -> true)

(* The unified construction API: Sched_config.make defaults and validation,
   the deterministic_decisions set, and Registry.instantiate's up-front
   checks (unknown name; predictive scheduler without a summary). *)
let test_config_api () =
  let cfg = Detmt_sched.Sched_config.make "mat" in
  Alcotest.(check string) "name carried" "mat"
    cfg.Detmt_sched.Sched_config.scheduler;
  Alcotest.(check int) "default shard" 0 cfg.Detmt_sched.Sched_config.shard;
  Alcotest.check b "default summary empty" true
    (cfg.Detmt_sched.Sched_config.summary = None);
  Alcotest.(check string) "with_scheduler swaps the policy" "pds"
    (Detmt_sched.Sched_config.with_scheduler cfg "pds")
      .Detmt_sched.Sched_config.scheduler;
  Alcotest.check_raises "negative shard rejected"
    (Invalid_argument "Sched_config.make: shard < 0") (fun () ->
      ignore (Detmt_sched.Sched_config.make ~shard:(-1) "mat"));
  Alcotest.(check (list string)) "deterministic decision modules"
    [ "seq"; "sat"; "psat"; "lsa"; "pds"; "ppds"; "mat"; "mat-ll"; "pmat";
      "cgs"; "pcgs"; "wss"; "cgs+ws" ]
    Detmt_sched.Registry.deterministic_decisions;
  let raises_invalid f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  (* instantiate validates before touching the actions, so inert stubs do *)
  let dummy_actions =
    { Detmt_runtime.Sched_iface.replica_id = 0;
      start_thread = ignore; grant_lock = ignore; grant_reacquire = ignore;
      resume_nested = ignore;
      ws_begin = (fun ~tid:_ ~record_acquisitions:_ -> ());
      ws_commit = (fun ~tid:_ -> true);
      mutex_owner = (fun _ -> None);
      mutex_free_for = (fun ~tid:_ ~mutex:_ -> true);
      holds_any_mutex = (fun _ -> false);
      request_method = (fun _ -> "m");
      request_arg = (fun ~tid:_ _ -> None);
      self_mutex = (fun () -> 1_000_000);
      pool_dispatch = (fun ~worker:_ ~tid:_ -> ());
      pool_complete = (fun ~worker:_ ~tid:_ -> ());
      broadcast_control = ignore;
      inject_dummy = (fun () -> ());
      schedule = (fun ~delay:_ _ -> ());
      now = (fun () -> 0.0);
      is_leader = (fun () -> true);
      obs = Detmt_obs.Recorder.disabled }
  in
  Alcotest.check b "instantiate rejects unknown names" true
    (raises_invalid (fun () ->
         Detmt_sched.Registry.instantiate
           (Detmt_sched.Sched_config.make "nope")
           dummy_actions));
  Alcotest.check b "predictive scheduler without summary rejected" true
    (raises_invalid (fun () ->
         Detmt_sched.Registry.instantiate
           (Detmt_sched.Sched_config.make "pmat")
           dummy_actions));
  Alcotest.check b "workers > 1 on a serial scheduler rejected" true
    (raises_invalid (fun () ->
         Detmt_sched.Registry.instantiate
           (Detmt_sched.Sched_config.make ~workers:4 "mat")
           dummy_actions));
  Alcotest.check_raises "workers < 1 rejected by the config"
    (Invalid_argument "Sched_config.make: workers < 1") (fun () ->
      ignore (Detmt_sched.Sched_config.make ~workers:0 "cgs"));
  Alcotest.(check int) "default workers" 1
    (Detmt_sched.Sched_config.make "cgs").Detmt_sched.Sched_config.workers

let suite =
  [ ("seq serialises everything", `Quick, test_seq_serialises_everything);
    ("seq wastes nested idle", `Quick, test_seq_wastes_nested_idle);
    ("sat single active thread", `Quick, test_sat_single_active_thread);
    ("sat uses nested idle", `Quick, test_sat_uses_nested_idle);
    ("mat parallel pure computations", `Quick,
     test_mat_parallel_pure_computations);
    ("mat pessimism on disjoint locks", `Quick,
     test_mat_pessimism_on_disjoint_locks);
    ("mat holds primacy through tail", `Quick,
     test_mat_holds_primacy_through_tail);
    ("mat-ll hands over after last lock", `Quick,
     test_mat_ll_hands_over_after_last_lock);
    ("mat-ll shared mutex", `Quick, test_mat_ll_no_worse_when_shared);
    ("pmat parallel disjoint locks", `Quick,
     test_pmat_parallel_disjoint_locks);
    ("pmat serialises conflicts", `Quick, test_pmat_serialises_conflicts);
    ("pmat conflict order", `Quick, test_pmat_conflict_order_is_queue_order);
    ("pmat stop rule", `Quick, test_pmat_stop_rule);
    ("pds round opens on full batch", `Quick,
     test_pds_round_opens_when_batch_arrives);
    ("pds dummies fill partial batch", `Quick,
     test_pds_dummy_fills_partial_batch);
    ("lsa leader broadcasts grants", `Quick,
     test_lsa_leader_broadcasts_grants);
    ("lsa followers apply leader order", `Quick,
     test_lsa_followers_apply_leader_order);
    ("lsa greedy beats mat on disjoint", `Quick,
     test_lsa_greedy_beats_mat_on_disjoint);
    ("freefall completes", `Quick, test_freefall_completes);
    ("registry", `Quick, test_registry);
    ("config api", `Quick, test_config_api);
  ]

let () = Alcotest.run "sched" [ ("sched", suite) ]
