(* End-to-end tests of the replication layer: every scheduler processes the
   paper's workloads to completion, replicas agree, and the qualitative
   claims of section 3.5 hold. *)

open Detmt_sim
open Detmt_replication

let b = Alcotest.bool

let figure1_cls = Detmt_workload.Figure1.cls Detmt_workload.Figure1.default

let figure1_gen = Detmt_workload.Figure1.gen Detmt_workload.Figure1.default

let run ?(scheduler = "mat") ?(clients = 4) ?(requests = 5)
    ?(cls = figure1_cls) ?(gen = figure1_gen) ?(params = Active.default_params)
    () =
  let engine = Engine.create () in
  let params = { params with Active.scheduler } in
  let system = Active.create ~engine ~cls ~params () in
  Client.run_clients ~engine ~system ~clients ~requests_per_client:requests
    ~gen ();
  system

let deterministic_schedulers =
  [ "seq"; "sat"; "lsa"; "pds"; "mat"; "mat-ll"; "pmat" ]

(* LSA's leader schedules greedily while followers enforce its decisions:
   the observable state and the per-mutex acquisition order agree, but the
   event interleaving (traces) legitimately differs between leader and
   followers.  All other deterministic schedulers replay bit-identically. *)
let expect_consistent scheduler (r : Consistency.report) =
  if String.equal scheduler "lsa" then
    r.Consistency.states_agree && r.Consistency.acquisitions_agree
  else Consistency.consistent r

let test_completes scheduler () =
  let system = run ~scheduler () in
  Alcotest.(check int)
    "all requests answered" 20
    (Active.replies_received system)

let test_consistent scheduler () =
  let system = run ~scheduler ~clients:6 ~requests:4 () in
  let report = Consistency.check (Active.live_replicas system) in
  if not (expect_consistent scheduler report) then
    Alcotest.failf "replicas diverged under %s: %s" scheduler
      (Format.asprintf "%a" Consistency.pp report)

let test_state_counts scheduler () =
  (* Every request increments "state" once per iteration: final state must
     be clients * requests * iterations on every replica. *)
  let clients = 3 and requests = 4 in
  let system = run ~scheduler ~clients ~requests () in
  let expected =
    clients * requests * Detmt_workload.Figure1.default.iterations
  in
  List.iter
    (fun r ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d state" (Detmt_runtime.Replica.id r))
        expected
        (List.assoc "state" (Detmt_runtime.Replica.state_snapshot r)))
    (Active.replicas system)

let test_freefall_diverges () =
  (* The nondeterministic baseline must be caught by the checker.  Use the
     highly contended tail-compute workload (a single shared mutex) so that
     the randomised wake-ups actually have candidates to scramble. *)
  let wl = Detmt_workload.Tail_compute.default in
  let cls = Detmt_workload.Tail_compute.cls wl in
  let gen = Detmt_workload.Tail_compute.gen wl in
  let system = run ~scheduler:"freefall" ~clients:8 ~requests:6 ~cls ~gen () in
  let report = Consistency.check (Active.live_replicas system) in
  Alcotest.check b "acquisition orders diverge" false
    report.Consistency.acquisitions_agree

let test_identical_runs_identical () =
  (* Bit-level reproducibility of a whole run. *)
  let fp () =
    let system = run ~scheduler:"mat" ~clients:5 ~requests:5 () in
    List.map
      (fun r -> Trace.fingerprint (Detmt_runtime.Replica.trace r))
      (Active.replicas system)
  in
  Alcotest.check b "same seeds, same traces" true (fp () = fp ())

let test_seq_slower_than_mat () =
  let mean scheduler =
    let system = run ~scheduler ~clients:8 ~requests:5 () in
    Detmt_stats.Summary.mean (Active.response_times system)
  in
  let seq = mean "seq" and mat = mean "mat" in
  if not (seq > mat) then
    Alcotest.failf "expected SEQ (%.2fms) slower than MAT (%.2fms)" seq mat

let test_lsa_message_overhead () =
  let broadcasts scheduler =
    let system = run ~scheduler ~clients:6 ~requests:5 () in
    Active.broadcasts system
  in
  let lsa = broadcasts "lsa" and mat = broadcasts "mat" in
  if not (lsa > mat) then
    Alcotest.failf "expected LSA (%d msgs) chattier than MAT (%d msgs)" lsa
      mat

let test_prodcons scheduler () =
  let cls = Detmt_workload.Prodcons.cls Detmt_workload.Prodcons.default in
  let gen = Detmt_workload.Prodcons.gen in
  let system = run ~scheduler ~clients:4 ~requests:5 ~cls ~gen () in
  Alcotest.(check int) "all replies" 20 (Active.replies_received system);
  let report = Consistency.check (Active.live_replicas system) in
  Alcotest.check b "consistent" true (expect_consistent scheduler report);
  List.iter
    (fun r ->
      let snap = Detmt_runtime.Replica.state_snapshot r in
      Alcotest.(check int) "produced" 10 (List.assoc "produced" snap);
      Alcotest.(check int) "consumed" 10 (List.assoc "consumed" snap);
      Alcotest.(check int) "buffer drained" 0 (List.assoc "items" snap))
    (Active.replicas system)

let test_failover_mat () =
  (* Killing a non-essential replica must not stop progress under MAT. *)
  let engine = Engine.create () in
  let system =
    Active.create ~engine ~cls:figure1_cls
      ~params:{ Active.default_params with scheduler = "mat" } ()
  in
  Failover.kill_and_measure ~system ~replica:2 ~at:50.0;
  Client.run_clients ~engine ~system ~clients:4 ~requests_per_client:5
    ~gen:figure1_gen ~until_ms:30_000.0 ();
  Alcotest.(check int) "all replies despite the failure" 20
    (Active.replies_received system);
  let report = Consistency.check (Active.live_replicas system) in
  Alcotest.check b "survivors consistent" true (Consistency.consistent report)

let test_failover_lsa_leader () =
  (* Killing the LSA leader: survivors take over and stay consistent. *)
  let engine = Engine.create () in
  let system =
    Active.create ~engine ~cls:figure1_cls
      ~params:{ Active.default_params with scheduler = "lsa" } ()
  in
  Failover.kill_and_measure ~system ~replica:0 ~at:100.0;
  Client.run_clients ~engine ~system ~clients:4 ~requests_per_client:5
    ~gen:figure1_gen ~until_ms:60_000.0 ();
  Alcotest.(check int) "all replies despite leader failure" 20
    (Active.replies_received system);
  let a = Failover.analyze ~system ~kill_at:100.0 in
  Alcotest.check b "visible take-over gap" true (a.Failover.takeover_ms > 0.0)

let test_passive_replay () =
  let engine = Engine.create () in
  let passive =
    Passive.create ~engine ~cls:figure1_cls ~scheduler:"seq" ()
  in
  let rng = Rng.create 7L in
  for i = 0 to 9 do
    let meth, args = figure1_gen ~client:0 ~seq:i rng in
    Passive.submit passive ~client:0 ~client_req:i ~meth ~args
      ~on_reply:(fun ~response_ms:_ -> ())
  done;
  Engine.run engine;
  let primary = Passive.primary passive in
  let backup = Passive.replay passive () in
  Alcotest.check b "replayed state matches primary" true
    (Detmt_runtime.Replica.state_fingerprint primary
    = Detmt_runtime.Replica.state_fingerprint backup)

let test_passive_checkpoint_replay () =
  let engine = Engine.create () in
  let passive =
    Passive.create ~engine ~cls:figure1_cls ~scheduler:"mat" ()
  in
  let rng = Rng.create 8L in
  let send i =
    let meth, args = figure1_gen ~client:0 ~seq:i rng in
    Passive.submit passive ~client:0 ~client_req:i ~meth ~args
      ~on_reply:(fun ~response_ms:_ -> ())
  in
  for i = 0 to 4 do send i done;
  Engine.run engine;
  let cp = Passive.checkpoint passive in
  for i = 5 to 9 do send i done;
  Engine.run engine;
  let primary = Passive.primary passive in
  let backup = Passive.replay passive ~from:cp () in
  Alcotest.check b "checkpoint + suffix replay matches primary" true
    (Detmt_runtime.Replica.state_fingerprint primary
    = Detmt_runtime.Replica.state_fingerprint backup)

(* ---------------------- live-thread accounting ---------------------- *)

module Replica = Detmt_runtime.Replica

let prodcons_cls = Detmt_workload.Prodcons.cls Detmt_workload.Prodcons.default

let workloads =
  [ ("figure1", figure1_cls, figure1_gen);
    ("prodcons", prodcons_cls, Detmt_workload.Prodcons.gen) ]

(* A replica keeps live threads only: after a run its live-thread counter
   is back to zero and its thread table is empty. *)
let test_active_drains scheduler () =
  List.iter
    (fun (name, cls, gen) ->
      let system = run ~scheduler ~cls ~gen () in
      Alcotest.(check int) (name ^ ": all replies") 20
        (Active.replies_received system);
      List.iter
        (fun r ->
          Alcotest.(check int) (name ^ ": no active thread") 0
            (Replica.active_threads r);
          Alcotest.check b (name ^ ": no thread kept") true
            (Replica.threads_overview r = []))
        (Active.replicas system))
    workloads

(* The quiescence checkpoints, which the replica fires off its live-thread
   counter, equal the stream predicted by a shadow table of live tids that
   a wrapper around each replica's scheduler keeps: a checkpoint right
   after every termination that leaves the shadow table empty. *)
let test_checkpoints_match_shadow scheduler () =
  List.iter
    (fun (name, cls, gen) ->
      let replicas = ref [] in
      let shadow = Hashtbl.create 64 (* (replica, tid) of live threads *)
      and completed = Hashtbl.create 4 in
      let expected = ref [] and actual = ref [] in
      let live id =
        Hashtbl.fold (fun (r, _) () n -> if r = id then n + 1 else n) shadow 0
      in
      let instantiate cfg (actions : Detmt_runtime.Sched_iface.actions) =
        let s = Detmt_sched.Registry.instantiate cfg actions in
        let id = actions.replica_id in
        { s with
          on_request =
            (fun tid ->
              Hashtbl.replace shadow (id, tid) ();
              s.on_request tid);
          on_terminate =
            (fun tid ->
              Hashtbl.remove shadow (id, tid);
              Hashtbl.replace completed id
                (1 + Option.value ~default:0 (Hashtbl.find_opt completed id));
              s.on_terminate tid;
              if live id = 0 then
                let r = List.find (fun r -> Replica.id r = id) !replicas in
                expected :=
                  (id, Hashtbl.find completed id, Replica.state_fingerprint r)
                  :: !expected) }
      in
      let engine = Engine.create () in
      let system =
        Active.create ~instantiate ~engine ~cls
          ~params:{ Active.default_params with scheduler } ()
      in
      replicas := Active.replicas system;
      Active.set_checkpoint_sink system (fun ~replica ~seq ~hash ~state:_ ->
          actual := (replica, seq, hash) :: !actual);
      Client.run_clients ~engine ~system ~clients:4 ~requests_per_client:5
        ~gen ();
      Alcotest.(check int) (name ^ ": all replies") 20
        (Active.replies_received system);
      Alcotest.check b (name ^ ": checkpoints emitted") true (!actual <> []);
      Alcotest.(check (list (triple int int int64)))
        (name ^ ": checkpoint stream") (List.rev !expected) (List.rev !actual))
    workloads

(* [Config.trace] only decides whether replicas keep the timed event list:
   the trace hash is folded either way, so fingerprints agree. *)
let test_trace_retention scheduler () =
  List.iter
    (fun (name, cls, gen) ->
      let traced trace =
        let params =
          { Active.default_params with
            config = { Active.default_params.config with trace } }
        in
        Active.replicas (run ~scheduler ~cls ~gen ~params ())
        |> List.map Replica.trace
      in
      let off = traced false and on = traced true in
      Alcotest.(check (list int64))
        (name ^ ": same fingerprints")
        (List.map Trace.fingerprint on)
        (List.map Trace.fingerprint off);
      Alcotest.check b (name ^ ": no events kept when off") true
        (List.for_all (fun t -> Trace.events t = []) off);
      Alcotest.check b (name ^ ": events kept when on") true
        (List.for_all (fun t -> Trace.events t <> []) on))
    workloads

(* A nested reply that arrives after its thread finished (a late duplicate)
   is dropped: nothing raises, no thread is resurrected to buffer it, and
   neither the state nor the trace moves. *)
let test_late_nested_reply_ignored () =
  let params =
    { Active.default_params with
      config = { Active.default_params.config with trace = true } }
  in
  let system = run ~params () in
  List.iter
    (fun r ->
      let nested =
        List.filter_map
          (function Trace.Nested_begin { tid; _ } -> Some tid | _ -> None)
          (Trace.events (Replica.trace r))
      in
      Alcotest.check b "some thread made a nested call" true (nested <> []);
      let state = Replica.state_fingerprint r
      and trace = Trace.fingerprint (Replica.trace r) in
      List.iter (fun tid -> Replica.nested_reply r ~tid ~call_index:0) nested;
      Alcotest.(check int) "still quiescent" 0 (Replica.active_threads r);
      Alcotest.check b "no thread resurrected" true
        (Replica.threads_overview r = []);
      Alcotest.check b "state unchanged" true
        (Replica.state_fingerprint r = state);
      Alcotest.check b "trace unchanged" true
        (Trace.fingerprint (Replica.trace r) = trace))
    (Active.replicas system)

let per_scheduler name f =
  List.map
    (fun s -> (Printf.sprintf "%s (%s)" name s, `Quick, f s))
    deterministic_schedulers

let suite =
  per_scheduler "workload completes" test_completes
  @ per_scheduler "replicas consistent" test_consistent
  @ per_scheduler "state counts" test_state_counts
  @ per_scheduler "active threads drain" test_active_drains
  @ per_scheduler "checkpoints vs shadow" test_checkpoints_match_shadow
  @ per_scheduler "trace retention" test_trace_retention
  @ [ ("freefall diverges", `Quick, test_freefall_diverges);
      ("identical runs identical", `Quick, test_identical_runs_identical);
      ("seq slower than mat", `Quick, test_seq_slower_than_mat);
      ("lsa chattier than mat", `Quick, test_lsa_message_overhead);
      ("failover: follower death harmless (mat)", `Quick, test_failover_mat);
      ("failover: lsa leader death", `Quick, test_failover_lsa_leader);
      ("passive replay (seq)", `Quick, test_passive_replay);
      ("passive checkpoint replay (mat)", `Quick,
       test_passive_checkpoint_replay);
      ("late nested reply ignored", `Quick, test_late_nested_reply_ignored);
    ]
  @ List.map
      (fun s ->
        (Printf.sprintf "producer/consumer (%s)" s, `Quick, test_prodcons s))
      [ "sat"; "lsa"; "pds"; "mat"; "mat-ll"; "pmat" ]

let () = Alcotest.run "replication" [ ("replication", suite) ]
