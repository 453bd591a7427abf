(* Benchmark harness: regenerates every figure of the paper and the derived
   experiment tables, plus Bechamel micro-benchmarks of the framework
   itself.

   Usage:
     dune exec bench/main.exe            # everything (default)
     dune exec bench/main.exe -- fig1    # one experiment
     dune exec bench/main.exe -- micro   # Bechamel micro-benchmarks only
     dune exec bench/main.exe -- list

   Absolute numbers are simulation numbers, not the paper's testbed numbers;
   the shapes (who wins, by what factor, where the crossovers are) are the
   reproduction targets — see EXPERIMENTS.md. *)

open Detmt

let say fmt = Format.printf fmt

let heading title =
  say "@.==[ %s ]=====================================================@.@."
    title

let print_table t = say "%a@." Table.pp t

(* --json: besides printing, dump each experiment's table (plus
   per-column medians — the columns are schedulers) to
   BENCH_<experiment>.json, for dashboards and regression diffing. *)

let json_mode = ref false

let median_of_column cells =
  match List.sort compare (List.filter_map float_of_string_opt cells) with
  | [] -> None
  | vals -> Some (List.nth vals (List.length vals / 2))

let table_json t =
  let cols = Table.columns t in
  let rows = Table.rows t in
  let medians =
    List.filteri (fun i _ -> i > 0) cols
    |> List.filter_map (fun c ->
           let i = ref (-1) in
           let idx =
             List.find_map
               (fun c' -> incr i; if c' = c then Some !i else None)
               cols
           in
           Option.bind idx (fun idx ->
               median_of_column
                 (List.filter_map (fun r -> List.nth_opt r idx) rows))
           |> Option.map (fun m -> (c, Json.Float m)))
  in
  Json.Obj
    [ ("title", Json.String (Table.title t));
      ("columns", Json.List (List.map (fun c -> Json.String c) cols));
      ("rows",
       Json.List
         (List.map
            (fun r -> Json.List (List.map (fun c -> Json.String c) r))
            rows));
      ("median_by_column", Json.Obj medians) ]

(* Every BENCH_*.json carries a schema version at the top level; bump it
   whenever the field set changes so dashboards fail loudly instead of
   reading stale columns.  v2 added wall_ms / minor_words / major_words /
   series_points / peak_pending cost columns; v3 added the engine core
   suite's events_per_s / words_per_event columns. *)
let schema_version = 3

let emit_json name json =
  if !json_mode then begin
    let json =
      match json with
      | Json.Obj fields when not (List.mem_assoc "schema_version" fields) ->
        Json.Obj (("schema_version", Json.Int schema_version) :: fields)
      | j -> j
    in
    let path = Printf.sprintf "BENCH_%s.json" name in
    let oc = open_out path in
    output_string oc (Json.to_string json);
    output_char oc '\n';
    close_out oc;
    say "wrote %s@." path
  end

let report name t =
  print_table t;
  emit_json name (table_json t)

(* Key per-scheduler metrics from one recorded canonical run of the
   Figure 1 workload: scheduler activity next to the response-time medians.
   LSA splits its grants between leader broadcasts and follower
   enforcement, so the grant counter sums the three names.  The adaptive
   meta-scheduler books its activity under its children's names, so its
   grant counters read zero here. *)
let scheduler_metrics ?(clients = 8) scheduler =
  let wl = Figure1.default in
  let cls = Figure1.cls wl and gen = Figure1.gen wl in
  let obs = Recorder.create () in
  let r, wall_ms, minor_words, major_words =
    Experiment.costed (fun () ->
        Experiment.run_workload ~obs ~scheduler ~clients ~cls ~gen ())
  in
  let ts = Recorder.timeseries obs in
  let peak_pending =
    let v = Timeseries.peak ts "engine.pending" in
    if Float.is_nan v then 0.0 else v
  in
  let m = Recorder.metrics obs in
  let c suffix = Metrics.counter_value m ("sched." ^ scheduler ^ "." ^ suffix) in
  let grants =
    c "grants" + c "grant_broadcasts" + c "follower_grants"
    + c "independent_grants"
  in
  ( scheduler,
    Json.Obj
      [ ("mean_response_ms", Json.Float r.Experiment.mean_response_ms);
        ("p95_response_ms", Json.Float r.Experiment.p95_response_ms);
        ("throughput_per_s", Json.Float r.Experiment.throughput_per_s);
        ("broadcasts", Json.Int r.Experiment.broadcasts);
        ("grants", Json.Int grants);
        ("deferrals", Json.Int (c "deferrals"));
        ("totem_deliveries",
         Json.Int (Metrics.counter_value m "totem.deliveries"));
        ("wall_ms", Json.Float wall_ms);
        ("minor_words", Json.Float minor_words);
        ("major_words", Json.Float major_words);
        ("series_points", Json.Int (Timeseries.point_count ts));
        ("peak_pending", Json.Float peak_pending) ] )

(* Every registered decision module must produce a metrics row — the CI
   bench smoke step asserts exactly that against `detmt-cli sched`. *)
let all_scheduler_names = List.map (fun s -> s.Registry.name) Registry.all

(* The ≥64-concurrent-requests scaling column: one canonical high-fan-in
   point per scheduler, recording how the indexed grant paths hold up when
   the candidate sets are an order of magnitude larger than Figure 1's. *)
let scaling_clients = 64

let scaling_json () =
  let rows =
    List.map
      (fun scheduler ->
        let (_, json) = scheduler_metrics ~clients:scaling_clients scheduler in
        (scheduler, json))
      all_scheduler_names
  in
  Json.Obj
    [ ("clients", Json.Int scaling_clients);
      ("schedulers", Json.Obj rows) ]

(* ------------------------- figure experiments ---------------------- *)

let fig1 () =
  heading "E1 / Figure 1 — response time vs #clients (paper's benchmark)";
  let table, series = Experiment.figure1 () in
  print_table table;
  (* E19 rider: the conflict-graph grid on the low-conflict workload, at
     64, 256 and 1024 clients. *)
  let parallel_rows = Experiment.parallel_pool () in
  print_table (Experiment.parallel_table parallel_rows);
  (* E20 rider: the workspace grids.  E20a (misprediction safety net) rides
     inside the [parallel] JSON section as [opaque]; E20b (early-release
     tail gap) gets its own [tail_release] section. *)
  let workspace_rows = Experiment.workspace_pool () in
  print_table (Experiment.workspace_table workspace_rows);
  let tail_rows = Experiment.tail_release_pool () in
  print_table (Experiment.tail_release_table tail_rows);
  if !json_mode then begin
    let metrics =
      List.map (fun s -> scheduler_metrics s) all_scheduler_names
    in
    let parallel_section =
      match Experiment.parallel_json parallel_rows with
      | Json.Obj fields ->
        Json.Obj
          (fields @ [ ("opaque", Experiment.workspace_json workspace_rows) ])
      | j -> j
    in
    match table_json table with
    | Json.Obj fields ->
      emit_json "fig1"
        (Json.Obj
           (fields
           @ [ ("scheduler_metrics", Json.Obj metrics);
               ("scaling", scaling_json ());
               ("parallel", parallel_section);
               ("tail_release",
                Experiment.tail_release_json tail_rows) ]))
    | _ -> ()
  end;
  Series.chart Format.std_formatter series;
  say "@.Expected shape: SEQ worst and degrading linearly; LSA best; MAT \
       ahead of SAT/PDS.@.E19 shape: cgs scales near-linearly with the pool \
       on the 4096-mutex workload@.(conflict-free classes) and passes pMAT \
       at 4 workers; pcgs matches cgs (no@.nested calls to release early \
       around).@."

let fig1b () =
  heading "E1b — compute-heavy ablation (front computation per request)";
  report "fig1b" (Experiment.figure1b ());
  say "Expected shape: with lock-free front work, MAT clearly beats SAT and \
       PDS@.(\"threads that issue computations before changing the object \
       state\").@."

let show_timeline scheduler workload =
  say "@.schedule under %s:@." scheduler;
  Timeline.render Format.std_formatter
    (Experiment.timeline ~scheduler ~workload ())

let fig2 () =
  heading "E2 / Figure 2 — primary hand-off after the last lock";
  report "fig2" (Experiment.figure2 ());
  show_timeline "mat" `Tail;
  show_timeline "mat-ll" `Tail;
  say "@.Expected shape: MAT+LL and PMAT hand the primary role over right \
       after the@.last unlock and run the 20 ms tails concurrently; MAT \
       serialises them.@."

let fig3 () =
  heading "E3 / Figure 3 — non-conflicting mutexes";
  report "fig3" (Experiment.figure3 ());
  show_timeline "mat" `Disjoint;
  show_timeline "pmat" `Disjoint;
  say "@.Expected shape: MAT degenerates to SEQ although the locks are \
       disjoint; PMAT@.grants them concurrently (the figure's 'ideal').@."

let fig4 () =
  heading "E4 / Figure 4 — code transformation and injection";
  say "%s@." (Experiment.figure4 ())

let wan () =
  heading "E5 — WAN sweep: LSA's broadcast dependence";
  report "wan" (Experiment.wan ());
  say "Expected shape: LSA's advantage shrinks with latency (it broadcasts \
       every@.grant); MAT's messages are per-request only.@."

let failover () =
  heading "E6 — leader failover take-over time";
  report "failover" (Experiment.failover ());
  say "Expected shape: LSA pays roughly the failure-detection timeout; the \
       symmetric@.algorithms pay nothing.@."

let pds () =
  heading "E7 — PDS batch size and dummy-message overhead";
  report "pds" (Experiment.pds_batch ());
  say "Expected shape: small batches serialise; large batches need dummy \
       traffic@.whenever the offered concurrency is below the batch size.@."

let overhead () =
  heading "E8 — bookkeeping overhead vs prediction gain (section 5)";
  report "overhead" (Experiment.overhead ());
  say "Expected shape: on the Figure-1 workload (10 announcements per \
       request) the@.PMAT advantage erodes and crosses over around 5 ms per \
       injected call.@."

let prodcons () =
  heading "E9 — condition variables: producer/consumer";
  report "prodcons" (Experiment.prodcons ())

let determinism () =
  heading "E10 — determinism matrix";
  report "determinism" (Experiment.determinism ());
  say "LSA agrees on states and per-mutex acquisition order but not on full \
       traces@.(followers replay the leader's decisions); freefall shows \
       what the checker@.catches without deterministic scheduling.@."

let saturation () =
  heading "E13 — open-loop saturation: throughput limits per scheduler";
  report "saturation" (Experiment.saturation ());
  say "Expected shape: SEQ saturates first (~1/solo-time), SAT and MAT at \
       the@.single-active-thread bound, LSA and predicted MAT at the CPU \
       pool's capacity.@."

let model () =
  heading "E11 — the section-5 analytic model vs the simulator";
  report "model" (Experiment.model ());
  say "Expected shape: within ~10%% at scale for seq/sat/mat/lsa; the model \
       captures@.SEQ's slope, the single-active-thread bound, MAT's \
       pre-lock overlap and LSA's@.core-bound plateau.@."

let shard () =
  heading "E14 — sharded multi-group replication: throughput scaling";
  let rows = Experiment.shard_sweep () in
  print_table (Experiment.shard_table rows);
  emit_json "shard" (Experiment.shard_json rows);
  say "Expected shape: near-linear scaling at 0%% cross (disjoint closures \
       never@.coordinate across groups); the two-phase path erodes the gain \
       as the@.transfer ratio grows.@."

let elastic () =
  heading "E16 — elastic reconfiguration: autoscaling vs static shard counts";
  let rows = Experiment.elastic_sweep () in
  print_table (Experiment.elastic_table rows);
  emit_json "elastic" (Experiment.elastic_json rows);
  say "Expected shape: every static count leaves the drifting hotspot's \
       p95 near the@.single-group figure (the hot group is the tail); the \
       autoscaler splits past the@.static ceiling and lands above 1.00x \
       against the best static at every client@.count — the split drains \
       are a one-time cost the run length amortises.@."

let workspace () =
  heading "E20 — deterministic workspaces: safety net and early release";
  let rows = Experiment.workspace_pool () in
  print_table (Experiment.workspace_table rows);
  let trows = Experiment.tail_release_pool () in
  print_table (Experiment.tail_release_table trows);
  emit_json "workspace"
    (Json.Obj
       [ ("opaque", Experiment.workspace_json rows);
         ("tail_release", Experiment.tail_release_json trows) ]);
  say "Expected shape: cgs+ws at 4 workers beats plain cgs at 4 (the \
       workspace runs@.Top-class requests off the critical path instead of \
       draining the pool); pcgs@.beats cgs on the tail workload (early \
       release overlaps the 20 ms tails).@."

let interference () =
  heading "E12 — static interference analysis (section 5)";
  Interference.pp_report Format.std_formatter (Experiment.interference ());
  say "@.Methods over fixed, distinct monitors are provably independent; a \
       request-@.supplied lock interferes with everything.@."

(* ------------------------- engine core suite ----------------------- *)

(* E18 gate: raw typed-event throughput plus macro points through the full
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
  let (), wall_ms, minor_words, _major =
    Experiment.costed (fun () -> Engine.run engine)
  in
  (Engine.events_executed engine, wall_ms, minor_words)

(* One full-stack run: clients through Active through Totem through the
   scheduler, the workload the ISSUE's >=3x / >=5x gates are stated on. *)
let engine_macro ~scheduler ~clients () =
  let wl = Figure1.default in
  let cls = Figure1.cls wl and gen = Figure1.gen wl in
  let engine = Engine.create () in
  let system =
    Active.create ~engine ~cls
      ~params:{ Active.default_params with scheduler }
      ()
  in
  let (), wall_ms, minor_words, _major =
    Experiment.costed (fun () ->
        Client.run_clients ~engine ~system ~clients ~requests_per_client:4
          ~gen ())
  in
  (Engine.events_executed engine, wall_ms, minor_words)

let engine_bench () =
  heading "E18 — engine core: typed events, timing wheel, fused delivery";
  (* pMAT is deliberately absent: its decision module's per-grant rescans
     are quadratic in the candidate set and would swamp the engine signal
     at 256+ clients.  The E18 macro grid (8192/16384, several minutes of
     wall time) only runs with DETMT_ENGINE_GRID=1; the CI smoke asserts
     the columns on the sub-second rows. *)
  let grid = Sys.getenv_opt "DETMT_ENGINE_GRID" = Some "1" in
  let runs =
    [ ("raw-chain", engine_raw);
      ("seq/figure1@256", engine_macro ~scheduler:"seq" ~clients:256);
      ("mat/figure1@256", engine_macro ~scheduler:"mat" ~clients:256);
      ("lsa/figure1@256", engine_macro ~scheduler:"lsa" ~clients:256) ]
    @
    if grid then
      [ ("mat/figure1@8192", engine_macro ~scheduler:"mat" ~clients:8192);
        ("mat/figure1@16384", engine_macro ~scheduler:"mat" ~clients:16384) ]
    else []
  in
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
      runs
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
  print_table table;
  emit_json "engine"
    (Json.Obj
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
               rows)) ]);
  say "Expected shape: the raw chain costs a few words/event (boxed float \
       timestamps@.only); the macro rows sit well under the pre-wheel \
       baseline recorded in@.EXPERIMENTS.md E18.@."

(* -------------------------- micro-benchmarks ----------------------- *)

let micro () =
  heading "B1-B4 — Bechamel micro-benchmarks of the framework";
  let open Bechamel in
  let fig1_cls = Figure1.cls Figure1.default in
  let small_system scheduler =
    Staged.stage (fun () ->
        let engine = Engine.create () in
        let system =
          Active.create ~engine ~cls:fig1_cls
            ~params:{ Active.default_params with scheduler }
            ()
        in
        let gen = Figure1.gen Figure1.default in
        Client.run_clients ~engine ~system ~clients:2 ~requests_per_client:2
          ~gen ())
  in
  let tests =
    [ Test.make ~name:"transform:basic(figure1)"
        (Staged.stage (fun () -> ignore (Transform.basic fig1_cls)));
      Test.make ~name:"transform:predictive(figure1)"
        (Staged.stage (fun () -> ignore (Transform.predictive fig1_cls)));
      Test.make ~name:"analysis:paths(figure1/4iter)"
        (let small =
           Figure1.cls { Figure1.default with Figure1.iterations = 4 }
         in
         let m = Class_def.find_method_exn (Transform.basic small) "work" in
         Staged.stage (fun () -> ignore (Paths.enumerate m.body)));
      Test.make ~name:"sim:figure1-run(seq)" (small_system "seq");
      Test.make ~name:"sim:figure1-run(mat)" (small_system "mat");
      Test.make ~name:"sim:figure1-run(pmat)" (small_system "pmat");
      Test.make ~name:"rng:int64"
        (let rng = Rng.create 1L in
         Staged.stage (fun () -> ignore (Rng.int64 rng)));
      (* The indexed grant path against the scan it replaced: 256 resident
         candidates, one add + min + remove per run.  The ordered set pays
         O(log n); the reference pays a full fold + sort on every [min]. *)
      Test.make ~name:"index:candidate(add+min+remove,n=256)"
        (let idx = Candidate_index.create () in
         List.iter (fun k -> Candidate_index.add idx ~key:k k) (List.init 256 Fun.id);
         let k = ref 0 in
         Staged.stage (fun () ->
             incr k;
             let key = 256 + (!k land 255) in
             Candidate_index.add idx ~key key;
             ignore (Candidate_index.min idx);
             Candidate_index.remove idx key));
      Test.make ~name:"index:reference-scan(add+min+remove,n=256)"
        (let idx = Candidate_index.Reference.create () in
         List.iter
           (fun k -> Candidate_index.Reference.add idx ~key:k k)
           (List.init 256 Fun.id);
         let k = ref 0 in
         Staged.stage (fun () ->
             incr k;
             let key = 256 + (!k land 255) in
             Candidate_index.Reference.add idx ~key key;
             ignore (Candidate_index.Reference.min idx);
             Candidate_index.Reference.remove idx key));
      (* The timing wheel against the binary heap it replaced. *)
      Test.make ~name:"pqueue:wheel(push+pop)"
        (let q = Pqueue.create () in
         Staged.stage (fun () ->
             Pqueue.push q ~time:1.0 ~seq:0 0;
             ignore (Pqueue.pop_raw q)));
      Test.make ~name:"pqueue:reference-heap(push+pop)"
        (let q = Pqueue.Reference.create () in
         Staged.stage (fun () ->
             Pqueue.Reference.push q ~time:1.0 ~seq:0 0;
             ignore (Pqueue.Reference.pop q)));
    ]
  in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
    in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true
        ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  let results =
    List.map (fun t -> analyze (benchmark (Test.make_grouped ~name:"" [ t ])))
      tests
  in
  List.iter2
    (fun test result ->
      Hashtbl.iter
        (fun _name ols ->
          let estimate =
            match Analyze.OLS.estimates ols with
            | Some [ e ] -> Printf.sprintf "%12.1f ns/run" e
            | Some _ | None -> "(no estimate)"
          in
          say "%-36s %s@."
            (String.concat "/" (List.map Test.Elt.name (Test.elements test)))
            estimate)
        result)
    tests results

(* ------------------------------ driver ----------------------------- *)

let experiments =
  [ ("fig1", fig1); ("fig1b", fig1b); ("fig2", fig2); ("fig3", fig3);
    ("fig4", fig4); ("wan", wan); ("failover", failover); ("pds", pds);
    ("overhead", overhead); ("prodcons", prodcons);
    ("determinism", determinism); ("saturation", saturation);
    ("model", model); ("shard", shard); ("elastic", elastic);
    ("workspace", workspace); ("interference", interference);
    ("engine", engine_bench);
    ("micro", micro) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json, args = List.partition (( = ) "--json") args in
  json_mode := json <> [];
  match args with
  | [] | "all" :: _ -> List.iter (fun (_, f) -> f ()) experiments
  | "list" :: _ ->
    List.iter (fun (name, _) -> say "%s@." name) experiments
  | name :: _ -> (
    match List.assoc_opt name experiments with
    | Some f -> f ()
    | None ->
      Format.eprintf "unknown experiment %S; try 'list'@." name;
      exit 2)
