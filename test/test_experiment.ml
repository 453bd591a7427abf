(* Smoke tests for the experiment runners: each produces a table of the
   right shape, and the headline qualitative claims hold on reduced
   parameters (the full sweeps live in the benchmark harness). *)

open Detmt_stats

let b = Alcotest.bool

let cell table ~row ~col =
  let cols = Table.columns table in
  let idx =
    match List.find_index (String.equal col) cols with
    | Some i -> i
    | None -> Alcotest.failf "no column %s" col
  in
  match List.find_opt (fun r -> List.nth r 0 = row) (Table.rows table) with
  | Some r -> float_of_string (List.nth r idx)
  | None -> Alcotest.failf "no row %s" row

let test_figure1_shape () =
  let table, series =
    Detmt.Experiment.figure1 ~clients_list:[ 1; 8 ] ~requests_per_client:3 ()
  in
  Alcotest.(check int) "two rows" 2 (List.length (Table.rows table));
  Alcotest.(check (list string)) "columns"
    [ "clients"; "seq"; "sat"; "lsa"; "pds"; "mat" ]
    (Table.columns table);
  Alcotest.(check int) "five series" 5 (List.length series);
  (* SEQ degrades fastest; LSA stays lowest. *)
  let seq8 = cell table ~row:"8" ~col:"seq" in
  let lsa8 = cell table ~row:"8" ~col:"lsa" in
  let mat8 = cell table ~row:"8" ~col:"mat" in
  Alcotest.check b "seq worst at 8 clients" true
    (seq8 > mat8 && seq8 > lsa8);
  Alcotest.check b "lsa best at 8 clients" true (lsa8 < mat8)

let test_figure1b_mat_beats_sat () =
  let table =
    Detmt.Experiment.figure1b ~clients_list:[ 8 ]
      ~schedulers:[ "sat"; "mat" ] ()
  in
  let sat = cell table ~row:"8" ~col:"sat" in
  let mat = cell table ~row:"8" ~col:"mat" in
  Alcotest.check b "front computation favours MAT" true
    (mat < 0.8 *. sat)

let test_figure2_last_lock_wins () =
  let table = Detmt.Experiment.figure2 ~clients_list:[ 8 ] () in
  let mat = cell table ~row:"8" ~col:"mat" in
  let ll = cell table ~row:"8" ~col:"mat-ll" in
  Alcotest.check b "last-lock hand-off is faster" true (ll < 0.6 *. mat)

let test_figure3_prediction_wins () =
  let table = Detmt.Experiment.figure3 ~clients_list:[ 8 ] () in
  let mat = cell table ~row:"8" ~col:"mat" in
  let seq = cell table ~row:"8" ~col:"seq" in
  let pmat = cell table ~row:"8" ~col:"pmat" in
  Alcotest.check b "MAT degenerates to SEQ on disjoint locks" true
    (abs_float (mat -. seq) < 0.05 *. seq);
  Alcotest.check b "PMAT approaches the ideal" true (pmat < 0.5 *. mat)

let test_figure4_text () =
  let text = Detmt.Experiment.figure4 () in
  List.iter
    (fun needle ->
      let has =
        let n = String.length needle and h = String.length text in
        let rec go i =
          i + n <= h && (String.sub text i n = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.check b (Printf.sprintf "contains %S" needle) true has)
    [ "synchronized"; "scheduler.lock(1"; "scheduler.ignore(2";
      "scheduler.lockInfo(1" ]

let test_wan_lsa_degrades_faster () =
  let table = Detmt.Experiment.wan ~latencies_ms:[ 0.5; 50.0 ] ~clients:4 () in
  let lsa_near = cell table ~row:"0.5" ~col:"lsa" in
  let lsa_far = cell table ~row:"50.0" ~col:"lsa" in
  let mat_near = cell table ~row:"0.5" ~col:"mat" in
  let mat_far = cell table ~row:"50.0" ~col:"mat" in
  Alcotest.check b "lsa slope steeper than mat" true
    (lsa_far -. lsa_near > mat_far -. mat_near)

let test_failover_lsa_pays () =
  let table = Detmt.Experiment.failover ~schedulers:[ "lsa"; "mat" ] () in
  let takeover name =
    match
      List.find_opt (fun r -> List.nth r 0 = name) (Table.rows table)
    with
    | Some r -> float_of_string (List.nth r 1)
    | None -> Alcotest.failf "no row %s" name
  in
  Alcotest.check b "lsa pays a take-over delay" true
    (takeover "lsa" > 10.0);
  Alcotest.check b "mat does not" true (takeover "mat" < 1.0)

let test_prodcons_all_consistent () =
  let table = Detmt.Experiment.prodcons ~clients:4 () in
  List.iter
    (fun row ->
      Alcotest.(check string)
        (List.nth row 0 ^ " consistent")
        "true"
        (List.nth row 4))
    (Table.rows table)

let test_determinism_matrix () =
  let table = Detmt.Experiment.determinism () in
  let row name =
    match
      List.find_opt (fun r -> List.nth r 0 = name) (Table.rows table)
    with
    | Some r -> r
    | None -> Alcotest.failf "no row %s" name
  in
  List.iter
    (fun s ->
      Alcotest.(check string) (s ^ " state") "agree" (List.nth (row s) 1);
      Alcotest.(check string)
        (s ^ " acquisitions")
        "agree"
        (List.nth (row s) 2))
    [ "seq"; "sat"; "lsa"; "pds"; "mat"; "mat-ll"; "pmat" ];
  Alcotest.(check string) "freefall diverges" "DIVERGE"
    (List.nth (row "freefall") 2)

let test_saturation_smoke () =
  let table =
    Detmt.Experiment.saturation ~rates:[ 20.0; 200.0 ]
      ~schedulers:[ "seq"; "lsa" ] ~requests:30 ()
  in
  Alcotest.(check int) "two rows" 2 (List.length (Table.rows table));
  (* At 10x the load, SEQ's backlog must dwarf LSA's ("-" marks a backlog
     still growing at the horizon — the strongest form of saturation). *)
  let value col =
    match
      List.find_opt (fun r -> List.nth r 0 = "200") (Table.rows table)
    with
    | Some r -> (
      let idx =
        match List.find_index (String.equal col) (Table.columns table) with
        | Some i -> i
        | None -> Alcotest.failf "no column %s" col
      in
      match List.nth r idx with "-" -> infinity | v -> float_of_string v)
    | None -> Alcotest.fail "no 200 req/s row"
  in
  Alcotest.check b "seq saturates before lsa" true
    (value "seq" > 3.0 *. value "lsa")

let test_interference_experiment () =
  let r = Detmt.Experiment.interference () in
  Alcotest.(check int) "three independent pairs" 3
    (List.length r.Detmt.Interference.independent_pairs)

let test_model_experiment_shape () =
  let table =
    Detmt.Experiment.model ~clients_list:[ 8 ] ~schedulers:[ "seq" ] ()
  in
  Alcotest.(check int) "one row" 1 (List.length (Table.rows table));
  Alcotest.(check int) "four columns" 4 (List.length (Table.columns table))

let test_run_workload_fields () =
  let wl = Detmt_workload.Disjoint.default in
  let r =
    Detmt.Experiment.run_workload ~scheduler:"mat" ~clients:2
      ~requests_per_client:3
      ~cls:(Detmt_workload.Disjoint.cls wl)
      ~gen:Detmt_workload.Disjoint.gen ()
  in
  Alcotest.(check int) "replies" 6 r.Detmt.Experiment.replies;
  Alcotest.check b "throughput positive" true
    (r.Detmt.Experiment.throughput_per_s > 0.0);
  Alcotest.check b "consistent" true r.Detmt.Experiment.consistent;
  Alcotest.check b "cpu was used" true (r.Detmt.Experiment.cpu_busy_ms > 0.0)

(* The experiment table: one entry per experiment, names unique. *)
let test_all_names () =
  let names = List.map (fun s -> s.Detmt.Experiment.name) Detmt.Experiment.all in
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check (list string)) "exactly the experiments"
    (List.sort compare
       [ "fig1"; "fig1b"; "fig2"; "fig3"; "fig4"; "wan"; "failover"; "pds";
         "overhead"; "prodcons"; "determinism"; "saturation"; "model";
         "shard"; "elastic"; "workspace"; "interference"; "engine" ])
    (List.sort compare names)

let test_median_by_column () =
  let t = Table.create ~title:"T" ~columns:[ "label"; "odd"; "even"; "text" ] in
  List.iter (Table.add_row t)
    [ [ "9"; "3.0"; "10"; "x" ];
      [ "1"; "1.0"; "40"; "-" ];
      [ "5"; "2.0"; "-"; "y" ];
      [ "7"; "-"; "20"; "z" ];
      [ "3"; "oops"; "30"; "w" ] ];
  (* "label" is excluded although numeric; "odd" has three numbers (the
     middle one), "even" four (the upper median); "text" has none. *)
  Alcotest.(check (list (pair string (float 0.0))))
    "medians"
    [ ("odd", 2.0); ("even", 30.0) ]
    (Detmt.Experiment.median_by_column t)

let test_inapplicable_override () =
  let spec name =
    match Detmt.Experiment.find name with
    | Some s -> s
    | None -> Alcotest.failf "no experiment %s" name
  in
  let o =
    { Detmt.Experiment.seed = None; clients = None; shards = None }
  in
  Alcotest.(check (list string)) "fig4 has no shards axis" [ "--shards" ]
    (Detmt.Experiment.unsupported (spec "fig4") { o with shards = Some 2 });
  Alcotest.(check (list string)) "elastic has no shards axis" [ "--shards" ]
    (Detmt.Experiment.unsupported (spec "elastic")
       { o with shards = Some 4; clients = Some 64 });
  Alcotest.(check (list string)) "shard takes all three" []
    (Detmt.Experiment.unsupported (spec "shard")
       { seed = Some 7; clients = Some 64; shards = Some 2 });
  List.iter
    (fun s ->
      Alcotest.(check (list string)) (s.Detmt.Experiment.name ^ " defaults") []
        (Detmt.Experiment.unsupported s o))
    Detmt.Experiment.all

let suite =
  [ ("figure1 shape", `Quick, test_figure1_shape);
    ("figure1b mat beats sat", `Quick, test_figure1b_mat_beats_sat);
    ("figure2 last-lock wins", `Quick, test_figure2_last_lock_wins);
    ("figure3 prediction wins", `Quick, test_figure3_prediction_wins);
    ("figure4 text", `Quick, test_figure4_text);
    ("wan: lsa degrades faster", `Quick, test_wan_lsa_degrades_faster);
    ("failover: lsa pays, mat does not", `Quick, test_failover_lsa_pays);
    ("prodcons consistent", `Quick, test_prodcons_all_consistent);
    ("determinism matrix", `Quick, test_determinism_matrix);
    ("run_workload fields", `Quick, test_run_workload_fields);
    ("saturation smoke", `Quick, test_saturation_smoke);
    ("interference experiment", `Quick, test_interference_experiment);
    ("model experiment shape", `Quick, test_model_experiment_shape);
    ("experiment names", `Quick, test_all_names);
    ("median by column", `Quick, test_median_by_column);
    ("inapplicable override rejected", `Quick, test_inapplicable_override);
  ]

let () = Alcotest.run "experiment" [ ("experiment", suite) ]
