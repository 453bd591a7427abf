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

let shard_sweep ?seed ?(shards_list = [ 1; 2; 4; 8 ])
    ?(clients_list = [ 64; 256; 1024 ]) ?(cross_ratios = [ 0.0; 0.1 ])
    ?(scheduler = "mat") ?(workers = 1) ?(requests_per_client = 4) ?batching
    () =
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
              run_shard ?seed ~scheduler ~workers ~requests_per_client
                ?batching ~workload ~shards ~clients ())
            shards_list)
        cross_ratios)
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

(* schema_version history: v2 added the wall_ms / minor_words / major_words /
   series_points / peak_pending cost columns to every row; v3 is the engine
   core suite release (events_per_s / words_per_event in BENCH_engine.json)
   — all bench producers version in lockstep. *)
let shard_json rows =
  let module Json = Detmt_obs.Json in
  Json.Obj
    [ ("schema_version", Json.Int 3);
      ("experiment", Json.String "shard");
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

(* One run of the Zipf-hotspot workload over the elastic substrate.  Static
   modes fix the group count for the whole run (epoch 0 of an N-group
   Reconfig is byte-identical to the N-shard {!Shard} system); autoscale
   starts at one group and lets the controller split, merge and (when the
   policy allows) hot-swap against the drifting hotspot. *)
let run_elastic ?(seed = 42L) ?(scheduler = "mat") ?(requests_per_client = 4)
    ?obs ?(workload = Detmt_workload.Hotspot.default) ~mode ~clients () =
  let obs =
    match obs with Some o -> o | None -> Detmt_obs.Recorder.create ()
  in
  let cls = Detmt_workload.Hotspot.cls workload in
  let gen = Detmt_workload.Hotspot.gen workload in
  let engine = Engine.create () in
  let base = { Active.default_params with Active.scheduler } in
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

let elastic_sweep ?seed ?(static_shards = [ 1; 2; 4; 8 ])
    ?(clients_list = [ 256; 1024 ]) ?(scheduler = "mat")
    ?(requests_per_client = 16) ?policy
    ?(workload = elastic_bench_workload) () =
  let policy = Option.value policy ~default:elastic_bench_policy in
  List.concat_map
    (fun clients ->
      List.map
        (fun n ->
          run_elastic ?seed ~workload ~scheduler ~requests_per_client
            ~mode:(Static n) ~clients ())
        static_shards
      @ [ run_elastic ?seed ~workload ~scheduler ~requests_per_client
            ~mode:(Autoscale policy) ~clients () ])
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
    [ ("schema_version", Json.Int 3);
      ("experiment", Json.String "elastic");
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

(* One grid point, shared by the E19 and E20 pools. *)
let pl_one ~seed ~requests_per_client ~cls ~gen ~scheduler ~workers ~clients
    =
  let params = { Active.default_params with Active.workers } in
  let r =
    run_workload ~seed ~params ~requests_per_client ~scheduler ~clients ~cls
      ~gen ()
  in
  { pl_scheduler = scheduler; pl_workers = workers; pl_clients = clients;
    pl_expected = clients * requests_per_client;
    pl_replies = r.replies;
    pl_mean_response_ms = r.mean_response_ms;
    pl_p95_response_ms = r.p95_response_ms;
    pl_throughput_per_s = r.throughput_per_s;
    pl_consistent = r.consistent;
    pl_duration_ms = r.duration_ms }

let parallel_pool ?(seed = 42L) ?(clients_list = [ 64; 256; 1024 ])
    ?(workers_list = [ 1; 2; 4; 8 ]) ?(requests_per_client = 2)
    ?(workload = parallel_workload) () =
  let cls = Detmt_workload.Figure1.cls workload in
  let gen = Detmt_workload.Figure1.gen workload in
  let one = pl_one ~seed ~requests_per_client ~cls ~gen in
  List.concat_map
    (fun clients ->
      one ~scheduler:"pmat" ~workers:1 ~clients
      :: List.concat_map
           (fun workers ->
             [ one ~scheduler:"cgs" ~workers ~clients;
               one ~scheduler:"pcgs" ~workers ~clients ])
           workers_list)
    clients_list

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

let workspace_pool ?(seed = 42L) ?(clients_list = [ 64; 256 ])
    ?(workers_list = [ 1; 4 ]) ?(requests_per_client = 2)
    ?(workload = workspace_workload) () =
  let cls = Detmt_workload.Sharded.cls workload in
  let gen = Detmt_workload.Sharded.gen workload in
  let one = pl_one ~seed ~requests_per_client ~cls ~gen in
  List.concat_map
    (fun clients ->
      List.concat_map
        (fun workers ->
          [ one ~scheduler:"cgs" ~workers ~clients;
            one ~scheduler:"cgs+ws" ~workers ~clients;
            one ~scheduler:"wss" ~workers ~clients ])
        workers_list)
    clients_list

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

let tail_release_pool ?(seed = 42L) ?(clients_list = [ 16; 64 ])
    ?(workers_list = [ 1; 4 ]) ?(requests_per_client = 2)
    ?(workload = tail_release_workload) () =
  let cls = Detmt_workload.Tail_compute.cls workload in
  let gen = Detmt_workload.Tail_compute.gen workload in
  let one = pl_one ~seed ~requests_per_client ~cls ~gen in
  List.concat_map
    (fun clients ->
      List.concat_map
        (fun workers ->
          [ one ~scheduler:"cgs" ~workers ~clients;
            one ~scheduler:"pcgs" ~workers ~clients ])
        workers_list)
    clients_list

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
