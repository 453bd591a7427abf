(* Bechamel micro-benchmarks of the framework itself (B1-B4): the code
   transformation, the path analysis, small end-to-end runs, the RNG, the
   candidate index and the engine's event queue.

   Usage: dune exec bench/main.exe

   The experiments (figures, derived grids, the engine suite) run through
   [detmt-cli bench NAME|all|list]; see EXPERIMENTS.md. *)

open Detmt

let () =
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
      (* The indexed grant path: 256 resident candidates, one add + min +
         remove per run. *)
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
      (* The engine's timing wheel: one push + pop per run. *)
      Test.make ~name:"pqueue:wheel(push+pop)"
        (let q = Pqueue.create () in
         Staged.stage (fun () ->
             Pqueue.push q ~time:1.0 ~seq:0 0;
             ignore (Pqueue.pop_raw q)));
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
          Format.printf "%-36s %s@."
            (String.concat "/" (List.map Test.Elt.name (Test.elements test)))
            estimate)
        result)
    tests results
