(* Differential tests for pMAT's single-pass grant rescan.

   {!Pmat_reference} keeps the original O(n^2) scan.  Both modules run under
   the registered name "pmat" through the same replicated system, so every
   observable must match bit for bit: the reply table (count and
   client-side reply times), the total-order fingerprint, each replica's
   state hash, trace and per-mutex acquisition fingerprints and — with the
   flight recorder on — the whole decision audit log, candidate lists
   included. *)

open Detmt_lang
module Active = Detmt_replication.Active
module Client = Detmt_replication.Client
module Recorder = Detmt_obs.Recorder
module Audit = Detmt_obs.Audit

let reference_instantiate (cfg : Detmt_sched.Sched_config.t) actions =
  Detmt_sched.Decision.instantiate
    (module Pmat_reference.Base)
    ~config:cfg.Detmt_sched.Sched_config.runtime
    ~summary:cfg.Detmt_sched.Sched_config.summary actions

type observables = {
  replies : int;
  reply_times : float list;
  order : int64;
  replicas : (int64 * int64 * int64) list;
      (* state hash, trace fingerprint, acquisition fingerprint *)
  audit : Audit.entry list;
}

let observe ?instantiate ~obs ~cls ~gen ~clients ~requests ~seed () =
  let engine = Detmt_sim.Engine.create () in
  let obs = if obs then Recorder.create () else Recorder.disabled in
  let params =
    { Active.default_params with scheduler = "pmat"; replicas = 3 }
  in
  let system = Active.create ~obs ?instantiate ~engine ~cls ~params () in
  Client.run_clients ~engine ~system ~clients ~requests_per_client:requests
    ~gen ~seed ();
  { replies = Active.replies_received system;
    reply_times = Active.reply_times system;
    order = Active.order_fingerprint system;
    replicas =
      List.map
        (fun r ->
          ( Detmt_runtime.Replica.state_fingerprint r,
            Detmt_sim.Trace.fingerprint (Detmt_runtime.Replica.trace r),
            Detmt_runtime.Replica.mutex_acquisition_fingerprint r ))
        (Active.live_replicas system);
    audit = Recorder.audit_entries obs }

(* Run both modules on the same input; [true] when everything matches. *)
let agree ~obs ~cls ~gen ~clients ~requests ~seed =
  let run = observe ~obs ~cls ~gen ~clients ~requests ~seed in
  run () = run ~instantiate:reference_instantiate ()

let check_agree name ~cls ~gen ~clients ~requests =
  List.iter
    (fun obs ->
      let seed = 42L in
      let a = observe ~obs ~cls ~gen ~clients ~requests ~seed () in
      let r =
        observe ~instantiate:reference_instantiate ~obs ~cls ~gen ~clients
          ~requests ~seed ()
      in
      let label what =
        Printf.sprintf "%s (obs %s): %s" name (if obs then "on" else "off")
          what
      in
      Alcotest.(check int) (label "replies") r.replies a.replies;
      Alcotest.(check (list (float 0.0)))
        (label "reply times") r.reply_times a.reply_times;
      Alcotest.(check int64) (label "order fingerprint") r.order a.order;
      Alcotest.(check bool) (label "replica fingerprints") true
        (r.replicas = a.replicas);
      Alcotest.(check int) (label "audit length") (List.length r.audit)
        (List.length a.audit);
      Alcotest.(check (list (list int)))
        (label "audit candidates")
        (List.map (fun (e : Audit.entry) -> e.candidates) r.audit)
        (List.map (fun (e : Audit.entry) -> e.candidates) a.audit);
      Alcotest.(check bool) (label "audit entries") true (r.audit = a.audit);
      if obs then
        Alcotest.(check bool) (label "audit recorded grants") true
          (List.exists
             (fun (e : Audit.entry) -> e.rule = Audit.Predicted_no_conflict)
             a.audit))
    [ false; true ]

let test_figure1 () =
  let p = Detmt_workload.Figure1.default in
  check_agree "figure1 64x5" ~cls:(Detmt_workload.Figure1.cls p)
    ~gen:(Detmt_workload.Figure1.gen p) ~clients:64 ~requests:5

let test_prodcons () =
  let p = Detmt_workload.Prodcons.default in
  check_agree "prodcons 16x5" ~cls:(Detmt_workload.Prodcons.cls p)
    ~gen:Detmt_workload.Prodcons.gen ~clients:16 ~requests:5

let test_disjoint () =
  let p = Detmt_workload.Disjoint.default in
  check_agree "disjoint 16x5" ~cls:(Detmt_workload.Disjoint.cls p)
    ~gen:Detmt_workload.Disjoint.gen ~clients:16 ~requests:5

(* Random classes ending in a changing loop: the loop reassigns the local it
   locks, so a thread stays unpredicted until it leaves the loop while later
   arrivals queue behind it — the pass's early stop, mid-queue. *)
let looping_class =
  let open QCheck.Gen in
  let* cls = Testgen.gen_class in
  let* extra = Testgen.gen_block 1 in
  let* n = int_range 1 3 in
  let loop =
    Ast.Loop
      { kind = Ast.For;
        count = Ast.Cfixed n;
        body =
          Ast.Assign ("v0", Ast.Marg 1)
          :: Ast.Sync
               ( Ast.Sp_local "v0",
                 [ Ast.Compute (Ast.Fixed 0.5); Ast.State_update ("st", 1) ] )
          :: extra }
  in
  return
    { cls with
      Class_def.methods =
        List.map
          (fun (m : Class_def.method_def) ->
            { m with body = m.body @ [ loop ] })
          cls.Class_def.methods }

let looping_workload =
  QCheck.make
    ~print:(fun (c, seed) ->
      Printf.sprintf "seed %Ld:\n%s" seed (Class_def.show c))
    QCheck.Gen.(pair looping_class (map Int64.of_int (int_bound 0xffff)))

let gen ~client:_ ~seq:_ rng =
  let m () = Ast.Vmutex (Detmt_sim.Rng.int rng 4) in
  ("m", [| m (); m (); Ast.Vbool (Detmt_sim.Rng.bool rng 0.5) |])

let prop_random_loops =
  QCheck.Test.make ~count:40
    ~name:"random looping classes: single pass == reference scan"
    looping_workload
    (fun (cls, seed) ->
      agree ~obs:true ~cls ~gen ~clients:6 ~requests:3 ~seed)

let () =
  Alcotest.run "pmat"
    [ ( "differential",
        [ ("figure1 64x5", `Quick, test_figure1);
          ("prodcons", `Quick, test_prodcons);
          ("disjoint", `Quick, test_disjoint);
          QCheck_alcotest.to_alcotest prop_random_loops ] ) ]
