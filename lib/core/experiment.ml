open Detmt_sim
open Detmt_stats
open Detmt_replication

type run_result = {
  scheduler : string;
  clients : int;
  replies : int;
  mean_response_ms : float;
  p95_response_ms : float;
  throughput_per_s : float;
  broadcasts : int;
  message_kinds : (string * int) list;
  consistent : bool;
  cpu_busy_ms : float;
  duration_ms : float;
}

let run_workload ?(seed = 42L) ?(params = Active.default_params)
    ?(requests_per_client = 10) ?(obs = Detmt_obs.Recorder.disabled)
    ~scheduler ~clients ~cls ~gen () =
  let engine = Engine.create () in
  let params = { params with Active.scheduler } in
  let system = Active.create ~obs ~engine ~cls ~params () in
  Client.run_clients ~engine ~system ~clients ~requests_per_client ~gen ~seed
    ();
  let times = Active.response_times system in
  let duration_ms = Engine.now engine in
  let report = Consistency.check (Active.live_replicas system) in
  (* Observable consistency: states and per-mutex acquisition orders.  Full
     trace identity additionally holds for all schedulers except LSA (the
     determinism matrix shows the fine-grained picture). *)
  let observably_consistent =
    report.Consistency.states_agree && report.Consistency.acquisitions_agree
  in
  let replies = Active.replies_received system in
  { scheduler; clients; replies;
    mean_response_ms = Summary.mean times;
    p95_response_ms = Summary.quantile times 0.95;
    throughput_per_s =
      (if duration_ms > 0.0 then 1000.0 *. float_of_int replies /. duration_ms
       else 0.0);
    broadcasts = Active.broadcasts system;
    message_kinds = Active.message_stats system;
    consistent = observably_consistent;
    cpu_busy_ms =
      (match Active.replicas system with
      | r :: _ -> Detmt_runtime.Replica.cpu_busy_ms r
      | [] -> 0.0);
    duration_ms }

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1                                                       *)

let default_clients = [ 1; 2; 4; 8; 16; 32 ]

let figure1 ?(clients_list = default_clients)
    ?(schedulers = Detmt_sched.Registry.paper_figure1)
    ?(requests_per_client = 10) ?(workload = Detmt_workload.Figure1.default)
    () =
  let cls = Detmt_workload.Figure1.cls workload in
  let gen = Detmt_workload.Figure1.gen workload in
  let table =
    Table.create
      ~title:
        "Figure 1: mean response time (ms) vs #clients, 3 replicas \
         (10-iteration method; p=0.2 nested 12ms; p=0.2 compute 10ms; 100 \
         mutexes)"
      ~columns:("clients" :: schedulers)
  in
  let series =
    List.map (fun s -> Series.create ~name:s) schedulers
  in
  List.iter
    (fun clients ->
      let row =
        List.map
          (fun scheduler ->
            let r =
              run_workload ~scheduler ~clients ~requests_per_client ~cls ~gen
                ()
            in
            r.mean_response_ms)
          schedulers
      in
      List.iter2
        (fun s y -> Series.add s ~x:(float_of_int clients) ~y)
        series row;
      Table.add_float_row table ~label:(string_of_int clients) row)
    clients_list;
  (table, series)

let figure1b ?(clients_list = default_clients)
    ?(schedulers = Detmt_sched.Registry.paper_figure1 @ [ "pmat" ]) () =
  let workload = Detmt_workload.Figure1.compute_heavy in
  let cls = Detmt_workload.Figure1.cls workload in
  let gen = Detmt_workload.Figure1.gen workload in
  let table =
    Table.create
      ~title:
        "Figure 1 ablation (compute-heavy): 20ms lock-free front \
         computation per request — mean response time (ms) vs #clients"
      ~columns:("clients" :: schedulers)
  in
  List.iter
    (fun clients ->
      let row =
        List.map
          (fun scheduler ->
            (run_workload ~scheduler ~clients ~cls ~gen ()).mean_response_ms)
          schedulers
      in
      Table.add_float_row table ~label:(string_of_int clients) row)
    clients_list;
  table

(* ------------------------------------------------------------------ *)
(* E2 — Figure 2: last-lock hand-off                                   *)

let figure2 ?(clients_list = [ 2; 4; 8; 16 ]) () =
  let wl = Detmt_workload.Tail_compute.default in
  let cls = Detmt_workload.Tail_compute.cls wl in
  let gen = Detmt_workload.Tail_compute.gen wl in
  let schedulers = [ "mat"; "mat-ll"; "pmat" ] in
  let table =
    Table.create
      ~title:
        "Figure 2: locking pattern after the last lock — mean response (ms); \
         1ms critical section, 20ms tail computation, shared mutex"
      ~columns:("clients" :: schedulers)
  in
  List.iter
    (fun clients ->
      let row =
        List.map
          (fun scheduler ->
            (run_workload ~scheduler ~clients ~cls ~gen ()).mean_response_ms)
          schedulers
      in
      Table.add_float_row table ~label:(string_of_int clients) row)
    clients_list;
  table

(* ------------------------------------------------------------------ *)
(* E3 — Figure 3: non-conflicting mutexes                              *)

let figure3 ?(clients_list = [ 2; 4; 8; 16 ]) () =
  let wl = Detmt_workload.Disjoint.default in
  let cls = Detmt_workload.Disjoint.cls wl in
  let gen = Detmt_workload.Disjoint.gen in
  let schedulers = [ "seq"; "mat"; "mat-ll"; "pmat" ] in
  let table =
    Table.create
      ~title:
        "Figure 3: non-conflicting mutexes — mean response (ms); each client \
         locks a private mutex (5ms critical section, 2ms tail)"
      ~columns:("clients" :: schedulers)
  in
  List.iter
    (fun clients ->
      let row =
        List.map
          (fun scheduler ->
            (run_workload ~scheduler ~clients ~cls ~gen ()).mean_response_ms)
          schedulers
      in
      Table.add_float_row table ~label:(string_of_int clients) row)
    clients_list;
  table

(* Render a small run's per-thread schedule — the visual form of the
   paper's Figures 2 and 3. *)
let timeline ?(scheduler = "mat") ?(workload = `Tail) ?(clients = 3)
    ?(requests = 2) () =
  let cls, gen =
    match workload with
    | `Tail ->
      let wl =
        { Detmt_workload.Tail_compute.default with
          Detmt_workload.Tail_compute.tail_ms = 10.0 }
      in
      (Detmt_workload.Tail_compute.cls wl, Detmt_workload.Tail_compute.gen wl)
    | `Disjoint ->
      ( Detmt_workload.Disjoint.cls Detmt_workload.Disjoint.default,
        Detmt_workload.Disjoint.gen )
  in
  let engine = Engine.create () in
  (* The renderer reads the timed event list, so this run retains it. *)
  let config =
    { Active.default_params.config with Detmt_runtime.Config.trace = true }
  in
  let system =
    Active.create ~engine ~cls
      ~params:{ Active.default_params with scheduler; config } ()
  in
  Client.run_clients ~engine ~system ~clients ~requests_per_client:requests
    ~gen ();
  match Active.replicas system with
  | r :: _ ->
    Detmt_sim.Timeline.of_trace
      (Detmt_sim.Trace.timed_events (Detmt_runtime.Replica.trace r))
  | [] -> Detmt_sim.Timeline.of_trace []

(* ------------------------------------------------------------------ *)
(* E4 — Figure 4: the transformation example                           *)

let figure4 () =
  let open Detmt_lang in
  let source =
    let open Builder in
    cls ~cname:"Figure4" ~mutex_fields:[ ("myo", 7) ] ~state_fields:[ "st" ]
      [ meth "foo" ~params:1
          [ if_
              (field_eq_arg "myo" 0)
              [ sync (arg 0) [ state_incr "st" 1 ] ]
              [ sync (field "myo") [ state_incr "st" 1 ] ];
          ];
      ]
  in
  let transformed, _summary = Detmt_transform.Transform.predictive source in
  Format.asprintf
    "--- source ---------------------------------------------------@.%a@.@.--- \
     after code analysis and injection ----------------------------@.%a@."
    Pretty.method_def
    (Class_def.find_method_exn source "foo")
    Pretty.method_def
    (Class_def.find_method_exn transformed "foo")

(* ------------------------------------------------------------------ *)
(* E5 — WAN: LSA's broadcast dependence                                *)

let wan
    ?(latencies_ms = [ 0.1; 0.5; 2.0; 8.0; 20.0; 50.0; 100.0; 200.0 ])
    ?(clients = 8) () =
  let wl = Detmt_workload.Figure1.default in
  let cls = Detmt_workload.Figure1.cls wl in
  let gen = Detmt_workload.Figure1.gen wl in
  let schedulers = [ "lsa"; "mat" ] in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "WAN sweep (%d clients): mean response (ms) and broadcasts vs \
            one-way network latency"
           clients)
      ~columns:
        [ "latency_ms"; "lsa"; "mat"; "lsa_broadcasts"; "mat_broadcasts" ]
  in
  List.iter
    (fun latency ->
      let results =
        List.map
          (fun scheduler ->
            let params =
              { Active.default_params with net_latency_ms = latency }
            in
            run_workload ~params ~scheduler ~clients ~cls ~gen ())
          schedulers
      in
      match results with
      | [ lsa; mat ] ->
        Table.add_row table
          [ Printf.sprintf "%.1f" latency;
            Printf.sprintf "%.2f" lsa.mean_response_ms;
            Printf.sprintf "%.2f" mat.mean_response_ms;
            string_of_int lsa.broadcasts;
            string_of_int mat.broadcasts ]
      | _ -> assert false)
    latencies_ms;
  table

(* ------------------------------------------------------------------ *)
(* E6 — leader failover                                                *)

type failover_row = {
  f_scheduler : string;
  f_takeover_ms : float;
  f_replies_after : int;
  f_consistent_after : bool;
}

let failover_run ~scheduler =
  (* The disjoint workload has no nested invocations, so killing replica 0
     does not disturb the external-call invoker role: any take-over delay is
     purely the scheduler's.  LSA stalls until the failure is detected and a
     new leader decides; the symmetric algorithms continue seamlessly. *)
  let wl = Detmt_workload.Disjoint.default in
  let cls = Detmt_workload.Disjoint.cls wl in
  let gen = Detmt_workload.Disjoint.gen in
  let engine = Engine.create () in
  let system =
    Active.create ~engine ~cls ~params:{ Active.default_params with scheduler }
      ()
  in
  let kill_at = 150.0 in
  (* Replica 0 is the initial leader for LSA. *)
  Failover.kill_and_measure ~system ~replica:0 ~at:kill_at;
  Client.run_clients ~engine ~system ~clients:8 ~requests_per_client:30 ~gen
    ~until_ms:60_000.0 ();
  let a = Failover.analyze ~system ~kill_at in
  let report = Consistency.check (Active.live_replicas system) in
  { f_scheduler = scheduler; f_takeover_ms = a.takeover_ms;
    f_replies_after = a.replies_after;
    f_consistent_after =
      report.Consistency.states_agree
      && report.Consistency.acquisitions_agree }

let failover ?(schedulers = [ "lsa"; "mat"; "sat" ]) () =
  let table =
    Table.create
      ~title:
        "Leader failover at t=150ms (detection timeout 50ms): extra reply \
         gap caused by the failure"
      ~columns:[ "scheduler"; "takeover_ms"; "replies_after"; "consistent" ]
  in
  List.iter
    (fun scheduler ->
      let r = failover_run ~scheduler in
      Table.add_row table
        [ r.f_scheduler;
          Printf.sprintf "%.2f" r.f_takeover_ms;
          string_of_int r.f_replies_after;
          string_of_bool r.f_consistent_after ])
    schedulers;
  table

(* ------------------------------------------------------------------ *)
(* E7 — PDS batching                                                   *)

let pds_batch ?(batches = [ 1; 2; 4; 8; 16 ]) ?(clients_list = [ 2; 8; 32 ])
    () =
  let wl = Detmt_workload.Figure1.default in
  let cls = Detmt_workload.Figure1.cls wl in
  let gen = Detmt_workload.Figure1.gen wl in
  let table =
    Table.create
      ~title:
        "PDS batch-size sweep: mean response (ms) / dummy broadcasts, per \
         #clients"
      ~columns:
        ("batch"
        :: List.map (fun c -> Printf.sprintf "%dc resp" c) clients_list
        @ List.map (fun c -> Printf.sprintf "%dc dummies" c) clients_list)
  in
  List.iter
    (fun batch ->
      let results =
        List.map
          (fun clients ->
            let config =
              { Detmt_runtime.Config.default with pds_batch = batch }
            in
            let params = { Active.default_params with config } in
            run_workload ~params ~scheduler:"pds" ~clients ~cls ~gen ())
          clients_list
      in
      let dummy_count r =
        match List.assoc_opt "pds-dummy" r.message_kinds with
        | Some n -> n
        | None -> 0
      in
      Table.add_row table
        (string_of_int batch
        :: List.map (fun r -> Printf.sprintf "%.2f" r.mean_response_ms)
             results
        @ List.map (fun r -> string_of_int (dummy_count r)) results))
    batches;
  table

(* ------------------------------------------------------------------ *)
(* E8 — bookkeeping overhead crossover                                 *)

let overhead
    ?(bookkeeping_ms = [ 0.0; 0.01; 0.1; 0.5; 1.0; 2.0; 5.0; 10.0 ])
    ?(clients = 8) () =
  (* Two extremes: disjoint locks, where prediction buys full concurrency
     (a large gain the bookkeeping cost merely erodes), and a single shared
     mutex, where prediction cannot reorder anything — there the injected
     calls are pure overhead and PMAT crosses below MAT.  This is the
     section 5 question: "at which point performance decreases again due to
     runtime overhead". *)
  let disjoint = Detmt_workload.Disjoint.default in
  let contended =
    { Detmt_workload.Tail_compute.lock_ms = 5.0; tail_ms = 2.0;
      shared_mutex = true }
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Bookkeeping-overhead sweep (%d clients): mean response (ms); \
            disjoint locks (prediction pays) vs one shared mutex \
            (prediction cannot help)"
           clients)
      ~columns:
        [ "bookkeeping_ms"; "mat/disj"; "pmat/disj"; "mat/shared";
          "pmat/shared"; "mat/fig1"; "pmat/fig1" ]
  in
  List.iter
    (fun bk ->
      let run scheduler ~cls ~gen =
        let config =
          { Detmt_runtime.Config.default with bookkeeping_overhead_ms = bk }
        in
        let params = { Active.default_params with config } in
        (run_workload ~params ~scheduler ~clients ~cls ~gen ())
          .mean_response_ms
      in
      let d_cls = Detmt_workload.Disjoint.cls disjoint in
      let d_gen = Detmt_workload.Disjoint.gen in
      let c_cls = Detmt_workload.Tail_compute.cls contended in
      let c_gen = Detmt_workload.Tail_compute.gen contended in
      let f_wl = Detmt_workload.Figure1.default in
      let f_cls = Detmt_workload.Figure1.cls f_wl in
      let f_gen = Detmt_workload.Figure1.gen f_wl in
      Table.add_row table
        [ Printf.sprintf "%.3f" bk;
          Printf.sprintf "%.2f" (run "mat" ~cls:d_cls ~gen:d_gen);
          Printf.sprintf "%.2f" (run "pmat" ~cls:d_cls ~gen:d_gen);
          Printf.sprintf "%.2f" (run "mat" ~cls:c_cls ~gen:c_gen);
          Printf.sprintf "%.2f" (run "pmat" ~cls:c_cls ~gen:c_gen);
          Printf.sprintf "%.2f" (run "mat" ~cls:f_cls ~gen:f_gen);
          Printf.sprintf "%.2f" (run "pmat" ~cls:f_cls ~gen:f_gen) ])
    bookkeeping_ms;
  table

(* ------------------------------------------------------------------ *)
(* E13 — open-loop saturation: throughput limits per scheduler          *)

let saturation ?(rates = [ 10.0; 25.0; 50.0; 100.0; 200.0 ])
    ?(schedulers = [ "seq"; "sat"; "mat"; "lsa"; "pmat" ]) ?(requests = 150)
    () =
  let wl = Detmt_workload.Figure1.default in
  let cls = Detmt_workload.Figure1.cls wl in
  let gen = Detmt_workload.Figure1.gen wl in
  let table =
    Table.create
      ~title:
        "Open-loop saturation (Poisson arrivals, Figure-1 workload): mean \
         response (ms) vs offered load; '-' = backlog still growing at the \
         measurement horizon"
      ~columns:("req/s" :: schedulers)
  in
  List.iter
    (fun rate ->
      let row =
        List.map
          (fun scheduler ->
            let engine = Engine.create () in
            let system =
              Active.create ~engine ~cls
                ~params:{ Active.default_params with scheduler }
                ()
            in
            let horizon =
              (* generous: 10x the time the load would need at capacity *)
              10.0 *. (float_of_int requests *. 1000.0 /. rate)
            in
            Client.run_open_loop ~engine ~system ~rate_per_s:rate ~requests
              ~gen ~until_ms:horizon ();
            if Active.replies_received system < requests then "-"
            else
              Printf.sprintf "%.1f"
                (Summary.mean (Active.response_times system)))
          schedulers
      in
      Table.add_row table (Printf.sprintf "%.0f" rate :: row))
    rates;
  table

(* ------------------------------------------------------------------ *)
(* E11 — the section-5 analytic model vs the simulator                 *)

let model ?(clients_list = [ 4; 8; 16; 32 ])
    ?(schedulers = [ "seq"; "sat"; "mat"; "lsa" ]) () =
  (* Use the compute-heavy Figure-1 variant: the model's MAT/SAT distinction
     is the pre-lock computation, which the paper's base workload barely
     has. *)
  let wl = Detmt_workload.Figure1.compute_heavy in
  let cls = Detmt_workload.Figure1.cls wl in
  let gen = Detmt_workload.Figure1.gen wl in
  let table =
    Table.create
      ~title:
        "Analytic model vs simulation (compute-heavy Figure-1 workload): \
         mean response (ms), model / measured / error"
      ~columns:
        ("clients"
        :: List.concat_map
             (fun s -> [ s ^ " model"; s ^ " sim"; s ^ " err%" ])
             schedulers)
  in
  List.iter
    (fun clients ->
      let cells =
        List.concat_map
          (fun scheduler ->
            let w = Model.of_figure1 ~clients wl in
            let predicted = Model.predict_response_ms w ~scheduler in
            let measured =
              (run_workload ~scheduler ~clients ~cls ~gen ())
                .mean_response_ms
            in
            let err = 100.0 *. (predicted -. measured) /. measured in
            [ Printf.sprintf "%.1f" predicted;
              Printf.sprintf "%.1f" measured;
              Printf.sprintf "%+.0f" err ])
          schedulers
      in
      Table.add_row table (string_of_int clients :: cells))
    clients_list;
  table

(* ------------------------------------------------------------------ *)
(* E12 — static interference analysis (section 5)                      *)

let interference () =
  (* The bank from examples/bank.ml in miniature: methods over disjoint
     account groups never interfere; a method on a request-supplied mutex
     interferes with everything. *)
  let open Detmt_lang.Builder in
  let cls =
    Detmt_lang.Class_def.make ~cname:"Audit"
      ~mutex_fields:[ ("ledger", 100); ("journal", 101) ]
      ~state_fields:[ "st" ]
      [ meth "post_ledger" [ sync (field "ledger") [ state_incr "st" 1 ] ];
        meth "post_journal" [ sync (field "journal") [ state_incr "st" 1 ] ];
        meth "audit_self" [ sync this [ state_incr "st" 1 ] ];
        meth "touch_any" ~params:1 [ sync (arg 0) [ state_incr "st" 1 ] ];
      ]
  in
  Detmt_analysis.Interference.analyse cls

(* ------------------------------------------------------------------ *)
(* E9 — producer/consumer                                              *)

let prodcons ?(schedulers = [ "sat"; "lsa"; "pds"; "mat"; "mat-ll"; "pmat" ])
    ?(clients = 8) () =
  let wl = Detmt_workload.Prodcons.default in
  let cls = Detmt_workload.Prodcons.cls wl in
  let gen = Detmt_workload.Prodcons.gen in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Producer/consumer over condition variables (%d clients; SEQ \
            excluded: it deadlocks, see section 1)"
           clients)
      ~columns:[ "scheduler"; "mean_ms"; "p95_ms"; "replies"; "consistent" ]
  in
  List.iter
    (fun scheduler ->
      let r = run_workload ~scheduler ~clients ~cls ~gen () in
      Table.add_row table
        [ scheduler;
          Printf.sprintf "%.2f" r.mean_response_ms;
          Printf.sprintf "%.2f" r.p95_response_ms;
          string_of_int r.replies;
          string_of_bool r.consistent ])
    schedulers;
  table

(* ------------------------------------------------------------------ *)
(* E14 — sharded multi-group replication: throughput scaling           *)

(* Host-side cost columns for the bench JSON: wall-clock milliseconds and
   GC-allocated words around one run.  These are host-machine measurements,
   never virtual-time inputs, so recording them cannot perturb the run. *)
let costed f =
  let minor0 = Gc.minor_words () in
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  let s1 = Gc.quick_stat () in
  ( r,
    (t1 -. t0) *. 1000.0,
    Gc.minor_words () -. minor0,
    s1.Gc.major_words -. s0.Gc.major_words )

let finite v = if Float.is_nan v then 0.0 else v

type shard_row = {
  s_shards : int;
  s_clients : int;
  s_cross_ratio : float;
  s_expected : int;
  s_replies : int;
  s_fast_path : int;
  s_cross_shard : int;
  s_mean_response_ms : float;
  s_p95_response_ms : float;
  s_throughput_per_s : float;
  s_broadcasts : int;
  s_wire_batches : int;
  s_consistent : bool;
  s_fingerprint : int64;
  s_duration_ms : float;
  s_wall_ms : float;
  s_minor_words : float;
  s_major_words : float;
  s_series_points : int;
  s_peak_pending : float;
}

(* [obs] defaults to a fresh enabled recorder (not [disabled]): the bench
   JSON carries the windowed-series columns, and the recorder's read-only
   contract (tested against every scheduler) keeps the run bit-identical
   either way. *)
let run_shard ?(seed = 42L) ?(scheduler = "mat") ?(workers = 1)
    ?(requests_per_client = 4) ?batching ?obs
    ?(workload = Detmt_workload.Sharded.default) ~shards ~clients () =
  let obs =
    match obs with Some o -> o | None -> Detmt_obs.Recorder.create ()
  in
  let cls = Detmt_workload.Sharded.cls workload in
  let gen = Detmt_workload.Sharded.gen workload in
  let engine = Engine.create () in
  let base =
    { Active.default_params with Active.scheduler; workers; batching }
  in
  let system =
    Shard.create ~obs ~engine ~cls ~params:{ Shard.shards; base } ()
  in
  let (), wall_ms, minor_words, major_words =
    costed (fun () ->
        ignore
          (Shard.run_clients_stats system ~clients ~requests_per_client ~gen
             ~seed ()))
  in
  let ts = Detmt_obs.Recorder.timeseries obs in
  let times = Shard.response_times system in
  let duration_ms = Engine.now engine in
  let replies = Shard.replies_received system in
  { s_shards = shards; s_clients = clients;
    s_cross_ratio = workload.Detmt_workload.Sharded.cross_ratio;
    s_expected = clients * requests_per_client;
    s_replies = replies;
    s_fast_path = Shard.fast_path_requests system;
    s_cross_shard = Shard.cross_shard_requests system;
    s_mean_response_ms = Summary.mean times;
    s_p95_response_ms = Summary.quantile times 0.95;
    s_throughput_per_s =
      (if duration_ms > 0.0 then 1000.0 *. float_of_int replies /. duration_ms
       else 0.0);
    s_broadcasts = Shard.broadcasts system;
    s_wire_batches = Shard.wire_batches system;
    s_consistent = Shard.consistent system;
    s_fingerprint = Shard.fingerprint system;
    s_duration_ms = duration_ms;
    s_wall_ms = wall_ms;
    s_minor_words = minor_words;
    s_major_words = major_words;
    s_series_points = Detmt_obs.Timeseries.point_count ts;
    s_peak_pending = finite (Detmt_obs.Timeseries.peak ts "engine.pending") }

(* E14: shard count x client count x cross-shard ratio, MAT inside each
   group; clients-major, then cross ratio, then shard count. *)
let shard_sweep ?seed ?(shards_list = [ 1; 2; 4; 8 ])
    ?(clients_list = [ 64; 256; 1024 ]) () =
  List.concat_map
    (fun clients ->
      List.concat_map
        (fun cross_ratio ->
          let workload =
            { Detmt_workload.Sharded.default with
              Detmt_workload.Sharded.cross_ratio }
          in
          List.map
            (fun shards ->
              run_shard ?seed ~workload ~shards ~clients ())
            shards_list)
        [ 0.0; 0.1 ])
    clients_list

(* Speedup is reported against the 1-shard run of the same (clients,
   cross_ratio) cell — the sharding gain net of everything else. *)
let shard_speedup rows r =
  List.find_opt
    (fun b ->
      b.s_shards = 1 && b.s_clients = r.s_clients
      && b.s_cross_ratio = r.s_cross_ratio)
    rows
  |> Option.map (fun b ->
         if b.s_throughput_per_s > 0.0 then
           r.s_throughput_per_s /. b.s_throughput_per_s
         else 0.0)

let shard_table rows =
  let t =
    Table.create
      ~title:
        "E14: sharded multi-group replication — throughput vs shard count \
         (speedup relative to the 1-shard run of the same row group)"
      ~columns:
        [ "shards"; "clients"; "cross"; "replies"; "fast/cross";
          "mean_ms"; "p95_ms"; "req/s"; "speedup"; "consistent" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ string_of_int r.s_shards;
          string_of_int r.s_clients;
          Printf.sprintf "%.0f%%" (100.0 *. r.s_cross_ratio);
          Printf.sprintf "%d/%d" r.s_replies r.s_expected;
          Printf.sprintf "%d/%d" r.s_fast_path r.s_cross_shard;
          Printf.sprintf "%.2f" r.s_mean_response_ms;
          Printf.sprintf "%.2f" r.s_p95_response_ms;
          Printf.sprintf "%.0f" r.s_throughput_per_s;
          (match shard_speedup rows r with
          | Some x -> Printf.sprintf "%.2fx" x
          | None -> "-");
          string_of_bool r.s_consistent ])
    rows;
  t

let shard_json rows =
  let module Json = Detmt_obs.Json in
  Json.Obj
    [ ("experiment", Json.String "shard");
      ("workload", Json.String "sharded");
      ("rows",
       Json.List
         (List.map
            (fun r ->
              Json.Obj
                [ ("shards", Json.Int r.s_shards);
                  ("clients", Json.Int r.s_clients);
                  ("cross_ratio", Json.Float r.s_cross_ratio);
                  ("expected", Json.Int r.s_expected);
                  ("replies", Json.Int r.s_replies);
                  ("fast_path", Json.Int r.s_fast_path);
                  ("cross_shard", Json.Int r.s_cross_shard);
                  ("mean_response_ms", Json.Float r.s_mean_response_ms);
                  ("p95_response_ms", Json.Float r.s_p95_response_ms);
                  ("throughput_per_s", Json.Float r.s_throughput_per_s);
                  ("speedup_vs_1shard",
                   match shard_speedup rows r with
                   | Some x -> Json.Float x
                   | None -> Json.Null);
                  ("broadcasts", Json.Int r.s_broadcasts);
                  ("wire_batches", Json.Int r.s_wire_batches);
                  ("consistent", Json.Bool r.s_consistent);
                  ("fingerprint", Json.String (Printf.sprintf "%Lx" r.s_fingerprint));
                  ("duration_ms", Json.Float r.s_duration_ms);
                  ("wall_ms", Json.Float r.s_wall_ms);
                  ("minor_words", Json.Float r.s_minor_words);
                  ("major_words", Json.Float r.s_major_words);
                  ("series_points", Json.Int r.s_series_points);
                  ("peak_pending", Json.Float r.s_peak_pending) ])
            rows)) ]

(* ------------------------------------------------------------------ *)
(* E16 — elastic reconfiguration: autoscaling vs static shard counts   *)

type elastic_mode = Static of int | Autoscale of Reconfig.policy

let elastic_mode_label = function
  | Static n -> Printf.sprintf "static-%d" n
  | Autoscale _ -> "autoscale"

type elastic_row = {
  e_mode : string;
  e_clients : int;
  e_expected : int;
  e_replies : int;
  e_groups_final : int;
  e_epoch : int;
  e_splits : int;
  e_merges : int;
  e_swaps : int;
  e_held : int;
  e_cross_group : int;
  e_mean_response_ms : float;
  e_p95_response_ms : float;
  e_throughput_per_s : float;
  e_states_agree : bool;
  e_epochs_agree : bool;
  e_fingerprint : int64;
  e_duration_ms : float;
  e_wall_ms : float;
  e_minor_words : float;
  e_major_words : float;
  e_series_points : int;
  e_peak_pending : float;
}

(* The grid's controller setting: tick fast, split eagerly, never merge
   (mid-run merges only pay off on workloads that go cold, and this one
   never does), and grow past the static grid's ceiling — the statics stop
   at 8 groups, the autoscaler may reach 16.  The split drains are a fixed
   up-front cost, so the sweep runs long enough (16 requests per client)
   to amortise them; the hotspot drifts twice over those 16 requests. *)
let elastic_bench_policy =
  { Reconfig.default_policy with
    Reconfig.interval_ms = 0.5; split_above = 4; merge_below = -1;
    max_live = 16 }

let elastic_bench_workload =
  { Detmt_workload.Hotspot.default with Detmt_workload.Hotspot.drift_every = 8 }

(* One 16-requests-per-client run of the drifting Zipf-hotspot workload
   over the elastic substrate, MAT in every group.  Static
   modes fix the group count for the whole run (epoch 0 of an N-group
   Reconfig is byte-identical to the N-shard {!Shard} system); autoscale
   starts at one group and lets the controller split, merge and (when the
   policy allows) hot-swap against the drifting hotspot. *)
let run_elastic ~seed ~mode ~clients =
  let requests_per_client = 16 in
  let obs = Detmt_obs.Recorder.create () in
  let cls = Detmt_workload.Hotspot.cls elastic_bench_workload in
  let gen = Detmt_workload.Hotspot.gen elastic_bench_workload in
  let engine = Engine.create () in
  let base = { Active.default_params with Active.scheduler = "mat" } in
  let initial_groups = match mode with Static n -> n | Autoscale _ -> 1 in
  let system =
    Reconfig.create ~obs ~engine ~cls
      ~params:{ Reconfig.default_params with Reconfig.initial_groups; base }
      ()
  in
  (match mode with
  | Autoscale policy -> Reconfig.set_autoscale system policy
  | Static _ -> ());
  let (), wall_ms, minor_words, major_words =
    costed (fun () ->
        ignore
          (Reconfig.run_clients_stats system ~clients ~requests_per_client
             ~gen ~seed ()))
  in
  let ts = Detmt_obs.Recorder.timeseries obs in
  let times = Reconfig.response_times system in
  let duration_ms = Engine.now engine in
  let replies = Reconfig.replies_received system in
  { e_mode = elastic_mode_label mode;
    e_clients = clients;
    e_expected = clients * requests_per_client;
    e_replies = replies;
    e_groups_final = Reconfig.group_count system;
    e_epoch = Reconfig.epoch system;
    e_splits = Reconfig.splits system;
    e_merges = Reconfig.merges system;
    e_swaps = Reconfig.swaps system;
    e_held = Reconfig.held_requests system;
    e_cross_group = Reconfig.cross_group_requests system;
    e_mean_response_ms = Summary.mean times;
    e_p95_response_ms = Summary.quantile times 0.95;
    e_throughput_per_s =
      (if duration_ms > 0.0 then 1000.0 *. float_of_int replies /. duration_ms
       else 0.0);
    e_states_agree = Reconfig.states_agree system;
    e_epochs_agree = Reconfig.epochs_agree system;
    e_fingerprint = Reconfig.fingerprint system;
    e_duration_ms = duration_ms;
    e_wall_ms = wall_ms;
    e_minor_words = minor_words;
    e_major_words = major_words;
    e_series_points = Detmt_obs.Timeseries.point_count ts;
    e_peak_pending = finite (Detmt_obs.Timeseries.peak ts "engine.pending") }

(* E16: per client count, every static shard count followed by the
   autoscaling run, 16 requests per client over the drifting hotspot. *)
let elastic_sweep ?(seed = 42L) ?(clients_list = [ 256; 1024 ]) () =
  List.concat_map
    (fun clients ->
      List.map
        (fun mode -> run_elastic ~seed ~mode ~clients)
        (List.map (fun n -> Static n) [ 1; 2; 4; 8 ]
        @ [ Autoscale elastic_bench_policy ]))
    clients_list

(* The autoscaler's p95 against the best static configuration of the same
   client count — the headline the elastic experiment argues. *)
let elastic_vs_best_static rows r =
  if r.e_mode <> "autoscale" then None
  else
    let statics =
      List.filter
        (fun b -> b.e_clients = r.e_clients && b.e_mode <> "autoscale")
        rows
    in
    match statics with
    | [] -> None
    | _ ->
      Some
        (List.fold_left
           (fun acc b -> min acc b.e_p95_response_ms)
           Float.infinity statics)

let elastic_table rows =
  let t =
    Table.create
      ~title:
        "E16: elastic reconfiguration — autoscaling vs static shard counts \
         on the drifting Zipf-hotspot workload"
      ~columns:
        [ "mode"; "clients"; "replies"; "groups"; "epochs";
          "split/merge/swap"; "held"; "mean_ms"; "p95_ms"; "req/s";
          "vs best static"; "agree" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ r.e_mode;
          string_of_int r.e_clients;
          Printf.sprintf "%d/%d" r.e_replies r.e_expected;
          string_of_int r.e_groups_final;
          string_of_int r.e_epoch;
          Printf.sprintf "%d/%d/%d" r.e_splits r.e_merges r.e_swaps;
          string_of_int r.e_held;
          Printf.sprintf "%.2f" r.e_mean_response_ms;
          Printf.sprintf "%.2f" r.e_p95_response_ms;
          Printf.sprintf "%.0f" r.e_throughput_per_s;
          (match elastic_vs_best_static rows r with
          | Some best when best > 0.0 ->
            Printf.sprintf "%.2fx" (best /. r.e_p95_response_ms)
          | _ -> "-");
          string_of_bool (r.e_states_agree && r.e_epochs_agree) ])
    rows;
  t

let elastic_json rows =
  let module Json = Detmt_obs.Json in
  Json.Obj
    [ ("experiment", Json.String "elastic");
      ("workload", Json.String "hotspot");
      ("rows",
       Json.List
         (List.map
            (fun r ->
              Json.Obj
                [ ("mode", Json.String r.e_mode);
                  ("clients", Json.Int r.e_clients);
                  ("expected", Json.Int r.e_expected);
                  ("replies", Json.Int r.e_replies);
                  ("groups_final", Json.Int r.e_groups_final);
                  ("epoch", Json.Int r.e_epoch);
                  ("splits", Json.Int r.e_splits);
                  ("merges", Json.Int r.e_merges);
                  ("swaps", Json.Int r.e_swaps);
                  ("held", Json.Int r.e_held);
                  ("cross_group", Json.Int r.e_cross_group);
                  ("mean_response_ms", Json.Float r.e_mean_response_ms);
                  ("p95_response_ms", Json.Float r.e_p95_response_ms);
                  ("throughput_per_s", Json.Float r.e_throughput_per_s);
                  ("p95_speedup_vs_best_static",
                   match elastic_vs_best_static rows r with
                   | Some best when r.e_p95_response_ms > 0.0 ->
                     Json.Float (best /. r.e_p95_response_ms)
                   | _ -> Json.Null);
                  ("states_agree", Json.Bool r.e_states_agree);
                  ("epochs_agree", Json.Bool r.e_epochs_agree);
                  ("fingerprint",
                   Json.String (Printf.sprintf "%Lx" r.e_fingerprint));
                  ("duration_ms", Json.Float r.e_duration_ms);
                  ("wall_ms", Json.Float r.e_wall_ms);
                  ("minor_words", Json.Float r.e_minor_words);
                  ("major_words", Json.Float r.e_major_words);
                  ("series_points", Json.Int r.e_series_points);
                  ("peak_pending", Json.Float r.e_peak_pending) ])
            rows)) ]

(* ------------------------------------------------------------------ *)
(* E10 — determinism matrix                                            *)

let determinism
    ?(schedulers = [ "seq"; "sat"; "lsa"; "pds"; "mat"; "mat-ll"; "pmat";
                     "freefall" ]) () =
  (* High contention (one shared mutex) so that nondeterminism has room to
     show: freefall must diverge here; LSA agrees on state and per-mutex
     acquisition order but not on full traces (followers replay the
     leader's decisions with a different event interleaving). *)
  let wl = Detmt_workload.Tail_compute.default in
  let cls = Detmt_workload.Tail_compute.cls wl in
  let gen = Detmt_workload.Tail_compute.gen wl in
  let table =
    Table.create
      ~title:
        "Determinism matrix (shared-mutex workload, 8 clients): do the \
         three replicas agree?"
      ~columns:[ "scheduler"; "state"; "acquisitions"; "traces" ]
  in
  List.iter
    (fun scheduler ->
      let engine = Engine.create () in
      let system =
        Active.create ~engine ~cls
          ~params:{ Active.default_params with scheduler } ()
      in
      Client.run_clients ~engine ~system ~clients:8 ~requests_per_client:5
        ~gen ();
      let r = Consistency.check (Active.live_replicas system) in
      let mark b = if b then "agree" else "DIVERGE" in
      Table.add_row table
        [ scheduler; mark r.states_agree; mark r.acquisitions_agree;
          mark r.traces_agree ])
    schedulers;
  table

(* ------------------------------------------------------------------ *)
(* E19 — conflict-graph parallel scheduling: cgs/pcgs vs pMAT          *)

type parallel_row = {
  pl_scheduler : string;
  pl_workers : int;
  pl_clients : int;
  pl_expected : int;
  pl_replies : int;
  pl_mean_response_ms : float;
  pl_p95_response_ms : float;
  pl_throughput_per_s : float;
  pl_consistent : bool;
  pl_duration_ms : float;
}

let parallel_workload =
  { Detmt_workload.Figure1.default with
    Detmt_workload.Figure1.n_mutexes = 4096; p_nested = 0.0 }

(* The E19 and E20 pools: per client count, the [baseline] schedulers at
   one worker, then [schedulers] at every pool width; 2 requests per
   client, seed 42. *)
let pool ?(baseline = []) ~cls ~gen ~clients_list ~workers_list schedulers =
  let one clients workers scheduler =
    let params = { Active.default_params with Active.workers } in
    let r =
      run_workload ~params ~requests_per_client:2 ~scheduler ~clients ~cls
        ~gen ()
    in
    { pl_scheduler = scheduler; pl_workers = workers; pl_clients = clients;
      pl_expected = clients * 2;
      pl_replies = r.replies;
      pl_mean_response_ms = r.mean_response_ms;
      pl_p95_response_ms = r.p95_response_ms;
      pl_throughput_per_s = r.throughput_per_s;
      pl_consistent = r.consistent;
      pl_duration_ms = r.duration_ms }
  in
  List.concat_map
    (fun clients ->
      List.map (one clients 1) baseline
      @ List.concat_map
          (fun workers -> List.map (one clients workers) schedulers)
          workers_list)
    clients_list

(* E19: the serial pMAT baseline, then cgs and pcgs at every pool width.
   The reproduction target: cgs at 4 workers beats pMAT at 1024 clients on
   mean response time. *)
let parallel_pool () =
  pool ~baseline:[ "pmat" ]
    ~cls:(Detmt_workload.Figure1.cls parallel_workload)
    ~gen:(Detmt_workload.Figure1.gen parallel_workload)
    ~clients_list:[ 64; 256; 1024 ] ~workers_list:[ 1; 2; 4; 8 ]
    [ "cgs"; "pcgs" ]

let pl_table ~title rows =
  let t =
    Table.create ~title
      ~columns:
        [ "scheduler"; "workers"; "clients"; "replies"; "mean_ms"; "p95_ms";
          "req/s"; "consistent" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [ r.pl_scheduler;
          string_of_int r.pl_workers;
          string_of_int r.pl_clients;
          Printf.sprintf "%d/%d" r.pl_replies r.pl_expected;
          Printf.sprintf "%.2f" r.pl_mean_response_ms;
          Printf.sprintf "%.2f" r.pl_p95_response_ms;
          Printf.sprintf "%.0f" r.pl_throughput_per_s;
          string_of_bool r.pl_consistent ])
    rows;
  t

let parallel_table rows =
  pl_table
    ~title:
      "E19: conflict-graph scheduling on the low-conflict workload (4096 \
       mutexes, no nested calls)"
    rows

let pl_rows_json rows =
  let module Json = Detmt_obs.Json in
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [ ("scheduler", Json.String r.pl_scheduler);
             ("workers", Json.Int r.pl_workers);
             ("clients", Json.Int r.pl_clients);
             ("expected", Json.Int r.pl_expected);
             ("replies", Json.Int r.pl_replies);
             ("mean_response_ms", Json.Float r.pl_mean_response_ms);
             ("p95_response_ms", Json.Float r.pl_p95_response_ms);
             ("throughput_per_s", Json.Float r.pl_throughput_per_s);
             ("consistent", Json.Bool r.pl_consistent);
             ("duration_ms", Json.Float r.pl_duration_ms) ])
       rows)

let parallel_json rows =
  let module Json = Detmt_obs.Json in
  Json.Obj
    [ ("experiment", Json.String "parallel");
      ("workload", Json.String "figure1-low-conflict");
      ("rows", pl_rows_json rows) ]

(* ------------------------------------------------------------------ *)
(* E20 — deterministic workspaces: the misprediction safety net and    *)
(* the early-release (tail) gap                                        *)

(* E20a setting: every fourth request synchronises through a local the
   §4.3 analysis cannot resolve, so its conflict class is [Top] even
   though the dynamic closure is one of 64 mutexes.  Plain cgs serialises
   each opaque request against everything in flight; cgs+ws speculates it
   in a workspace off the critical path and merges at its slot barrier. *)
let workspace_workload =
  { Detmt_workload.Sharded.default with
    Detmt_workload.Sharded.cross_ratio = 0.0; opaque_ratio = 0.25 }

(* E20a.  The reproduction target: cgs+ws at 4 workers beats plain cgs at
   4 workers on mean response time, because the workspace absorbs the
   [Top]-class serialisation. *)
let workspace_pool () =
  pool
    ~cls:(Detmt_workload.Sharded.cls workspace_workload)
    ~gen:(Detmt_workload.Sharded.gen workspace_workload)
    ~clients_list:[ 64; 256 ] ~workers_list:[ 1; 4 ]
    [ "cgs"; "cgs+ws"; "wss" ]

let workspace_table rows =
  pl_table
    ~title:
      "E20a: workspace safety net on the misprediction workload (25% \
       opaque closures over 64 objects)"
    rows

let workspace_json rows =
  let module Json = Detmt_obs.Json in
  Json.Obj
    [ ("experiment", Json.String "workspace");
      ("workload", Json.String "sharded-opaque");
      ("opaque_ratio",
       Json.Float workspace_workload.Detmt_workload.Sharded.opaque_ratio);
      ("rows", pl_rows_json rows) ]

(* E20b setting: a 1 ms critical section on one shared mutex followed by a
   20 ms lock-free tail.  cgs keeps the whole static class blocked until
   the request terminates, so the tail serialises everything; pcgs's
   early release shrinks the blockset to [held ∪ future] after the last
   unlock, overlapping the tails — the Figure 2 gap, measured on the
   conflict-graph pair. *)
let tail_release_workload = Detmt_workload.Tail_compute.default

(* E20b.  The reproduction target: pcgs at 4 workers beats cgs at 4
   workers — early release, not just graph dispatch, overlaps the tails. *)
let tail_release_pool () =
  pool
    ~cls:(Detmt_workload.Tail_compute.cls tail_release_workload)
    ~gen:(Detmt_workload.Tail_compute.gen tail_release_workload)
    ~clients_list:[ 16; 64 ] ~workers_list:[ 1; 4 ] [ "cgs"; "pcgs" ]

let tail_release_table rows =
  pl_table
    ~title:
      "E20b: early release on the shared-mutex tail workload (1 ms lock, \
       20 ms tail)"
    rows

let tail_release_json rows =
  let module Json = Detmt_obs.Json in
  Json.Obj
    [ ("experiment", Json.String "tail_release");
      ("workload", Json.String "tail-compute-shared");
      ("tail_ms",
       Json.Float tail_release_workload.Detmt_workload.Tail_compute.tail_ms);
      ("rows", pl_rows_json rows) ]

(* ------------------------------------------------------------------ *)
(* Bench JSON: tables, medians, schema stamping                        *)

(* Per-column medians of the numeric cells, first (label) column excluded;
   an even count takes the upper median, a column without numbers is
   dropped. *)
let median_by_column t =
  let rows = Table.rows t in
  List.mapi (fun i c -> (i, c)) (Table.columns t)
  |> List.filter_map (fun (i, c) ->
         let cell r = Option.bind (List.nth_opt r i) float_of_string_opt in
         match List.sort compare (List.filter_map cell rows) with
         | vals when i > 0 && vals <> [] ->
           Some (c, List.nth vals (List.length vals / 2))
         | _ -> None)

let table_json t =
  let module Json = Detmt_obs.Json in
  let strings l = Json.List (List.map (fun c -> Json.String c) l) in
  Json.Obj
    [ ("title", Json.String (Table.title t));
      ("columns", strings (Table.columns t));
      ("rows", Json.List (List.map strings (Table.rows t)));
      ("median_by_column",
       Json.Obj
         (List.map (fun (c, m) -> (c, Json.Float m)) (median_by_column t))) ]

(* Every BENCH_*.json carries a schema version at the top level; bump it
   whenever the field set changes so dashboards fail loudly instead of
   reading stale columns.  v2 added the wall_ms / minor_words / major_words
   / series_points / peak_pending cost columns; v3 added the engine core
   suite's events_per_s / words_per_event columns. *)
let schema_version = 3

let stamp = function
  | Detmt_obs.Json.Obj fields ->
    Detmt_obs.Json.Obj
      (("schema_version", Detmt_obs.Json.Int schema_version) :: fields)
  | j -> j

(* ------------------------------------------------------------------ *)
(* Figure 1 riders: per-scheduler metrics and the scaling column       *)

(* Key per-scheduler metrics from one recorded canonical run of the
   Figure 1 workload: scheduler activity next to the response-time medians.
   LSA splits its grants between leader broadcasts and follower
   enforcement, so the grant counter sums the three names.  The adaptive
   meta-scheduler books its activity under its children's names, so its
   grant counters read zero here. *)
let scheduler_metrics ?(clients = 8) scheduler =
  let module Json = Detmt_obs.Json in
  let wl = Detmt_workload.Figure1.default in
  let cls = Detmt_workload.Figure1.cls wl
  and gen = Detmt_workload.Figure1.gen wl in
  let obs = Detmt_obs.Recorder.create () in
  let r, wall_ms, minor_words, major_words =
    costed (fun () -> run_workload ~obs ~scheduler ~clients ~cls ~gen ())
  in
  let ts = Detmt_obs.Recorder.timeseries obs in
  let m = Detmt_obs.Recorder.metrics obs in
  let c suffix =
    Detmt_obs.Metrics.counter_value m ("sched." ^ scheduler ^ "." ^ suffix)
  in
  let grants =
    c "grants" + c "grant_broadcasts" + c "follower_grants"
    + c "independent_grants"
  in
  ( scheduler,
    Json.Obj
      [ ("mean_response_ms", Json.Float r.mean_response_ms);
        ("p95_response_ms", Json.Float r.p95_response_ms);
        ("throughput_per_s", Json.Float r.throughput_per_s);
        ("broadcasts", Json.Int r.broadcasts);
        ("grants", Json.Int grants);
        ("deferrals", Json.Int (c "deferrals"));
        ("totem_deliveries",
         Json.Int (Detmt_obs.Metrics.counter_value m "totem.deliveries"));
        ("wall_ms", Json.Float wall_ms);
        ("minor_words", Json.Float minor_words);
        ("major_words", Json.Float major_words);
        ("series_points", Json.Int (Detmt_obs.Timeseries.point_count ts));
        ("peak_pending",
         Json.Float (finite (Detmt_obs.Timeseries.peak ts "engine.pending")))
      ] )

(* Every registered decision module gets a metrics row. *)
let all_scheduler_names =
  List.map (fun s -> s.Detmt_sched.Registry.name) Detmt_sched.Registry.all

(* The >= 64-concurrent-requests scaling column: one canonical high-fan-in
   point per scheduler, recording how the indexed grant paths hold up when
   the candidate sets are an order of magnitude larger than Figure 1's. *)
let scaling_clients = 64

let scaling () =
  let module Json = Detmt_obs.Json in
  Json.Obj
    [ ("clients", Json.Int scaling_clients);
      ("schedulers",
       Json.Obj
         (List.map (scheduler_metrics ~clients:scaling_clients)
            all_scheduler_names)) ]

(* ------------------------------------------------------------------ *)
(* E18 — engine core suite                                             *)

(* Raw typed-event throughput plus macro points through the full
   replication stack.  The two derived columns — events_per_s and
   words_per_event (minor words allocated per executed event) — are what
   the CI smoke step asserts; the regression targets live in
   EXPERIMENTS.md E18. *)

let engine_raw_budget = 200_000

(* A self-sustaining chain of typed events: 64 staggered seeds, each
   handler re-posts itself while the budget lasts.  Nothing but the engine
   core runs, so this is the ceiling the macro rows are measured against. *)
let engine_raw () =
  let engine = Engine.create () in
  let budget = ref engine_raw_budget in
  let h = ref 0 in
  h :=
    Engine.register_handler engine (fun x ->
        if !budget > 0 then begin
          decr budget;
          Engine.post engine ~delay:0.01 !h (x + 1)
        end);
  for i = 0 to 63 do
    Engine.post engine ~delay:(0.01 *. float_of_int i) !h i
  done;
  let (), wall_ms, minor_words, _major = costed (fun () -> Engine.run engine) in
  (Engine.events_executed engine, wall_ms, minor_words)

(* One full-stack run: clients through Active through Totem through the
   scheduler. *)
let engine_macro ~scheduler ~clients () =
  let wl = Detmt_workload.Figure1.default in
  let cls = Detmt_workload.Figure1.cls wl
  and gen = Detmt_workload.Figure1.gen wl in
  let engine = Engine.create () in
  let system =
    Active.create ~engine ~cls
      ~params:{ Active.default_params with scheduler }
      ()
  in
  let (), wall_ms, minor_words, _major =
    costed (fun () ->
        Client.run_clients ~engine ~system ~clients ~requests_per_client:4
          ~gen ())
  in
  (Engine.events_executed engine, wall_ms, minor_words)

(* pMAT is deliberately absent: its per-grant rescans are quadratic in the
   candidate set and would swamp the engine signal at 256 clients. *)
let engine_suite () =
  let module Json = Detmt_obs.Json in
  let rows =
    List.map
      (fun (name, f) ->
        let events, wall_ms, minor_words = f () in
        let events_per_s =
          if wall_ms > 0.0 then float_of_int events /. (wall_ms /. 1000.0)
          else 0.0
        in
        let words_per_event =
          if events > 0 then minor_words /. float_of_int events else 0.0
        in
        (name, events, wall_ms, events_per_s, minor_words, words_per_event))
      [ ("raw-chain", engine_raw);
        ("seq/figure1@256", engine_macro ~scheduler:"seq" ~clients:256);
        ("mat/figure1@256", engine_macro ~scheduler:"mat" ~clients:256);
        ("lsa/figure1@256", engine_macro ~scheduler:"lsa" ~clients:256) ]
  in
  let table =
    Table.create ~title:"E18: engine core throughput"
      ~columns:
        [ "run"; "events"; "wall_ms"; "events/s"; "minor_words";
          "words/event" ]
  in
  List.iter
    (fun (name, events, wall_ms, events_per_s, minor_words, words_per_event) ->
      Table.add_row table
        [ name; string_of_int events; Printf.sprintf "%.1f" wall_ms;
          Printf.sprintf "%.0f" events_per_s;
          Printf.sprintf "%.0f" minor_words;
          Printf.sprintf "%.1f" words_per_event ])
    rows;
  let json =
    Json.Obj
      [ ("rows",
         Json.List
           (List.map
              (fun (name, events, wall_ms, events_per_s, minor_words,
                    words_per_event) ->
                Json.Obj
                  [ ("name", Json.String name);
                    ("events", Json.Int events);
                    ("wall_ms", Json.Float wall_ms);
                    ("events_per_s", Json.Float events_per_s);
                    ("minor_words", Json.Float minor_words);
                    ("words_per_event", Json.Float words_per_event) ])
              rows)) ]
  in
  (table, json)

(* ------------------------------------------------------------------ *)
(* The experiment table                                                *)

type overrides = {
  seed : int option;
  clients : int option;
  shards : int option;
}

type axis = Seed | Clients | Shards

let axis_flag = function
  | Seed -> "--seed"
  | Clients -> "--clients"
  | Shards -> "--shards"

type block = Table of Table.t | Text of string

type output = { blocks : block list; json : Detmt_obs.Json.t Lazy.t option }

type spec = {
  name : string;
  heading : string;
  expected : string;
  axes : axis list;
  run : overrides -> output;
}

let unsupported spec o =
  List.filter_map
    (fun (axis, given) ->
      if given && not (List.mem axis spec.axes) then Some (axis_flag axis)
      else None)
    [ (Seed, o.seed <> None); (Clients, o.clients <> None);
      (Shards, o.shards <> None) ]

(* Most experiments are one table whose BENCH JSON is the table itself. *)
let table_spec ~name ~heading ~expected make =
  let run _ =
    let t = make () in
    { blocks = [ Table t ]; json = Some (lazy (stamp (table_json t))) }
  in
  { name; heading; expected; axes = []; run }

let obj_fields = function Detmt_obs.Json.Obj fields -> fields | _ -> []

let fig1_run _ =
  let table, series = figure1 () in
  (* E19 rider: the conflict-graph grid on the low-conflict workload.  E20
     riders: the workspace grids — E20a (misprediction safety net) rides
     inside the [parallel] JSON section as [opaque], E20b (early-release
     tail gap) gets its own [tail_release] section. *)
  let parallel_rows = parallel_pool () in
  let workspace_rows = workspace_pool () in
  let tail_rows = tail_release_pool () in
  let json =
    lazy
      (let module Json = Detmt_obs.Json in
       let metrics = List.map scheduler_metrics all_scheduler_names in
       stamp
         (Json.Obj
            (obj_fields (table_json table)
            @ [ ("scheduler_metrics", Json.Obj metrics);
                ("scaling", scaling ());
                ("parallel",
                 Json.Obj
                   (obj_fields (parallel_json parallel_rows)
                   @ [ ("opaque", workspace_json workspace_rows) ]));
                ("tail_release", tail_release_json tail_rows) ])))
  in
  { blocks =
      [ Table table; Table (parallel_table parallel_rows);
        Table (workspace_table workspace_rows);
        Table (tail_release_table tail_rows);
        Text (Format.asprintf "%a" (fun ppf -> Series.chart ppf) series) ];
    json = Some json }

(* A table followed by the per-thread schedules of a small run. *)
let with_timelines workload schedulers make _ =
  let t = make () in
  { blocks =
      Table t
      :: List.map
           (fun scheduler ->
             Text
               (Format.asprintf "@.schedule under %s:@.%a" scheduler
                  (fun ppf -> Timeline.render ppf)
                  (timeline ~scheduler ~workload ())))
           schedulers;
    json = Some (lazy (stamp (table_json t))) }

let all =
  [ { name = "fig1";
      heading = "E1 / Figure 1 — response time vs #clients (paper's benchmark)";
      expected =
        "Expected shape: SEQ worst and degrading linearly; LSA best; MAT \
         ahead of SAT/PDS.\n\
         E19 shape: cgs scales near-linearly with the pool on the \
         4096-mutex workload\n\
         (conflict-free classes) and passes pMAT at 4 workers; pcgs matches \
         cgs (no\n\
         nested calls to release early around).";
      axes = [];
      run = fig1_run };
    table_spec ~name:"fig1b"
      ~heading:"E1b — compute-heavy ablation (front computation per request)"
      ~expected:
        "Expected shape: with lock-free front work, MAT clearly beats SAT \
         and PDS\n\
         (\"threads that issue computations before changing the object \
         state\")."
      (fun () -> figure1b ());
    { name = "fig2";
      heading = "E2 / Figure 2 — primary hand-off after the last lock";
      expected =
        "Expected shape: MAT+LL and PMAT hand the primary role over right \
         after the\n\
         last unlock and run the 20 ms tails concurrently; MAT serialises \
         them.";
      axes = [];
      run = with_timelines `Tail [ "mat"; "mat-ll" ] (fun () -> figure2 ()) };
    { name = "fig3";
      heading = "E3 / Figure 3 — non-conflicting mutexes";
      expected =
        "Expected shape: MAT degenerates to SEQ although the locks are \
         disjoint; PMAT\n\
         grants them concurrently (the figure's 'ideal').";
      axes = [];
      run = with_timelines `Disjoint [ "mat"; "pmat" ] (fun () -> figure3 ())
    };
    { name = "fig4";
      heading = "E4 / Figure 4 — code transformation and injection";
      expected = "";
      axes = [];
      run = (fun _ -> { blocks = [ Text (figure4 () ^ "\n") ]; json = None })
    };
    table_spec ~name:"wan" ~heading:"E5 — WAN sweep: LSA's broadcast dependence"
      ~expected:
        "Expected shape: LSA's advantage shrinks with latency (it broadcasts \
         every\n\
         grant); MAT's messages are per-request only."
      (fun () -> wan ());
    table_spec ~name:"failover" ~heading:"E6 — leader failover take-over time"
      ~expected:
        "Expected shape: LSA pays roughly the failure-detection timeout; the \
         symmetric\n\
         algorithms pay nothing."
      (fun () -> failover ());
    table_spec ~name:"pds"
      ~heading:"E7 — PDS batch size and dummy-message overhead"
      ~expected:
        "Expected shape: small batches serialise; large batches need dummy \
         traffic\n\
         whenever the offered concurrency is below the batch size."
      (fun () -> pds_batch ());
    table_spec ~name:"overhead"
      ~heading:"E8 — bookkeeping overhead vs prediction gain (section 5)"
      ~expected:
        "Expected shape: on the Figure-1 workload (10 announcements per \
         request) the\n\
         PMAT advantage erodes and crosses over around 5 ms per injected \
         call."
      (fun () -> overhead ());
    table_spec ~name:"prodcons"
      ~heading:"E9 — condition variables: producer/consumer" ~expected:""
      (fun () -> prodcons ());
    table_spec ~name:"determinism" ~heading:"E10 — determinism matrix"
      ~expected:
        "LSA agrees on states and per-mutex acquisition order but not on \
         full traces\n\
         (followers replay the leader's decisions); freefall shows what the \
         checker\n\
         catches without deterministic scheduling."
      (fun () -> determinism ());
    table_spec ~name:"saturation"
      ~heading:"E13 — open-loop saturation: throughput limits per scheduler"
      ~expected:
        "Expected shape: SEQ saturates first (~1/solo-time), SAT and MAT at \
         the\n\
         single-active-thread bound, LSA and predicted MAT at the CPU pool's \
         capacity."
      (fun () -> saturation ());
    table_spec ~name:"model"
      ~heading:"E11 — the section-5 analytic model vs the simulator"
      ~expected:
        "Expected shape: within ~10% at scale for seq/sat/mat/lsa; the model \
         captures\n\
         SEQ's slope, the single-active-thread bound, MAT's pre-lock overlap \
         and LSA's\n\
         core-bound plateau."
      (fun () -> model ());
    { name = "shard";
      heading = "E14 — sharded multi-group replication: throughput scaling";
      expected =
        "Expected shape: near-linear scaling at 0% cross (disjoint closures \
         never\n\
         coordinate across groups); the two-phase path erodes the gain as \
         the\n\
         transfer ratio grows.";
      axes = [ Seed; Clients; Shards ];
      run =
        (fun o ->
          (* --shards N sweeps the powers of two below N, plus N itself. *)
          let shards_list =
            Option.map
              (fun n ->
                List.sort_uniq compare
                  (max 1 n :: List.filter (fun s -> s < n) [ 1; 2; 4; 8 ]))
              o.shards
          in
          let rows =
            shard_sweep
              ?seed:(Option.map Int64.of_int o.seed)
              ?shards_list
              ?clients_list:(Option.map (fun c -> [ c ]) o.clients)
              ()
          in
          { blocks = [ Table (shard_table rows) ];
            json = Some (lazy (stamp (shard_json rows))) }) };
    { name = "elastic";
      heading =
        "E16 — elastic reconfiguration: autoscaling vs static shard counts";
      expected =
        "Expected shape: every static count leaves the drifting hotspot's \
         p95 near the\n\
         single-group figure (the hot group is the tail); the autoscaler \
         splits past the\n\
         static ceiling and lands above 1.00x against the best static at \
         every client\n\
         count — the split drains are a one-time cost the run length \
         amortises.";
      axes = [ Seed; Clients ];
      run =
        (fun o ->
          let rows =
            elastic_sweep
              ?seed:(Option.map Int64.of_int o.seed)
              ?clients_list:(Option.map (fun c -> [ c ]) o.clients)
              ()
          in
          { blocks = [ Table (elastic_table rows) ];
            json = Some (lazy (stamp (elastic_json rows))) }) };
    { name = "workspace";
      heading = "E20 — deterministic workspaces: safety net and early release";
      expected =
        "Expected shape: cgs+ws at 4 workers beats plain cgs at 4 (the \
         workspace runs\n\
         Top-class requests off the critical path instead of draining the \
         pool); pcgs\n\
         beats cgs on the tail workload (early release overlaps the 20 ms \
         tails).";
      axes = [];
      run =
        (fun _ ->
          let rows = workspace_pool () in
          let trows = tail_release_pool () in
          { blocks =
              [ Table (workspace_table rows); Table (tail_release_table trows) ];
            json =
              Some
                (lazy
                  (stamp
                     (Detmt_obs.Json.Obj
                        [ ("opaque", workspace_json rows);
                          ("tail_release", tail_release_json trows) ]))) }) };
    { name = "interference";
      heading = "E12 — static interference analysis (section 5)";
      expected =
        "Methods over fixed, distinct monitors are provably independent; a \
         request-\n\
         supplied lock interferes with everything.";
      axes = [];
      run =
        (fun _ ->
          { blocks =
              [ Text
                  (Format.asprintf "%a" Detmt_analysis.Interference.pp_report
                     (interference ())) ];
            json = None }) };
    { name = "engine";
      heading = "E18 — engine core: typed events, timing wheel, fused delivery";
      expected =
        "Expected shape: the raw chain costs a few words/event (boxed float \
         timestamps\n\
         only); the macro rows sit well under the pre-wheel baseline \
         recorded in\n\
         EXPERIMENTS.md E18.";
      axes = [];
      run =
        (fun _ ->
          let table, json = engine_suite () in
          { blocks = [ Table table ]; json = Some (lazy (stamp json)) }) } ]

let find name = List.find_opt (fun s -> s.name = name) all
