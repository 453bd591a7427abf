(* The detmt performance benchmark: host cost of simulating the paper's
   systems, and the virtual-time response times those systems achieve.

   Usage:
     detmt_perfbench.exe --workload NAME [--seed N] [--seconds S]
                         [--trace 0|1] [--out DIR]

   --trace 0 measures the end-to-end metrics with observability off.
   --trace 1 measures the per-layer metrics: interleaved untraced,
   [Recorder.profile_only] and full-[Recorder] runs, plus isolated Totem and
   interpreter drivers.  It writes the request spans and the per-layer
   summary under DIR.  The last line on stdout is one JSON object with the
   keys correct, attempted, failed and metrics.

   Every system is built here from public constructors ([Active.create],
   [Reconfig.create]) and driven by [Client.run_clients_stats_on], so the
   benchmark sees the engine, the submit function and every accessor. *)

open Detmt

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type system = Group of Active.t | Elastic of Reconfig.t

type config = {
  label : string;
  scheduler : string;
  clients : int;
  requests_per_client : int;
  source : unit -> Class_def.t;  (** builds the untransformed class *)
  gen_of : unit -> Client.request_gen;
  create : obs:Recorder.t -> engine:Engine.t -> cls:Class_def.t -> system;
}

let group_config ~label ~scheduler ~workers ~clients ~requests_per_client
    ~source ~gen_of =
  { label; scheduler; clients; requests_per_client; source; gen_of;
    create =
      (fun ~obs ~engine ~cls ->
        let params =
          { Active.default_params with Active.scheduler; workers }
        in
        Group (Active.create ~obs ~engine ~cls ~params ())) }

(* Figure 1 as the paper runs it: 3 replicas, 0.5 ms latency, closed-loop
   clients. *)
let fig1 ~clients ~requests_per_client scheduler =
  let wl = Figure1.default in
  group_config
    ~label:(Printf.sprintf "%s@%d" scheduler clients)
    ~scheduler ~workers:1 ~clients ~requests_per_client
    ~source:(fun () -> Figure1.cls wl)
    ~gen_of:(fun () -> Figure1.gen wl)

(* E20a's misprediction setting on a simulated 4-worker pool. *)
let opaque scheduler =
  let wl = Experiment.workspace_workload in
  group_config
    ~label:(Printf.sprintf "%s@256x4" scheduler)
    ~scheduler ~workers:4 ~clients:256 ~requests_per_client:4
    ~source:(fun () -> Sharded.cls wl)
    ~gen_of:(fun () -> Sharded.gen wl)

(* E16's autoscaling run: one initial group, mat inside every group. *)
let elastic =
  let wl = Experiment.elastic_bench_workload in
  { label = "autoscale-mat@1024"; scheduler = "mat"; clients = 1024;
    requests_per_client = 16;
    source = (fun () -> Hotspot.cls wl);
    gen_of = (fun () -> Hotspot.gen wl);
    create =
      (fun ~obs ~engine ~cls ->
        let base = { Active.default_params with Active.scheduler = "mat" } in
        let t =
          Reconfig.create ~obs ~engine ~cls
            ~params:
              { Reconfig.default_params with
                Reconfig.initial_groups = 1; base }
            ()
        in
        Reconfig.set_autoscale t Experiment.elastic_bench_policy;
        Elastic t) }

let workloads =
  (* Requests per client are chosen so that one pass over a workload is
     short enough to repeat many times in a run (see [slices]) while every
     configuration still completes at least 320 requests. *)
  [ ("fig1-paper",
     List.map (fig1 ~clients:256 ~requests_per_client:4)
       Registry.paper_figure1);
    ("fig1-predicted",
     List.map (fig1 ~clients:64 ~requests_per_client:5) [ "pmat"; "mat-ll" ]);
    ("opaque-parallel", List.map opaque [ "wss"; "cgs" ]);
    ("elastic-hotspot", [ elastic ]) ]

(* ------------------------------------------------------------------ *)
(* One configuration: set-up and run                                   *)

type prepared = {
  engine : Engine.t;
  system : system;
  gen : Client.request_gen;
}

(* Set-up: everything before the first event — class construction, the
   transformation/prediction inside the system constructor, and the
   replicated system itself. *)
let prepare cfg obs =
  let cls = cfg.source () in
  let gen = cfg.gen_of () in
  let engine = Engine.create () in
  { engine; system = cfg.create ~obs ~engine ~cls; gen }

let submit_of system : Client.submit_fn =
  match system with
  | Group a ->
    fun ~client ~client_req ~meth ~args ~on_reply ->
      Active.submit a ~client ~client_req ~meth ~args ~on_reply
  | Elastic r -> Reconfig.submit r

let all_replicas = function
  | Group a -> Active.replicas a
  | Elastic r -> List.concat_map Active.replicas (Reconfig.groups_ever r)

let first_system = function
  | Group a -> Some a
  | Elastic r -> List.nth_opt (Reconfig.live_systems r) 0

(* What a finished run yields.  [digest] covers every virtual-time
   observable the benchmark reports (reply count, each reply's arrival time,
   the response quantiles, the event count), with floats rendered bit-exact,
   so two runs agree on it only if they are bit-identical. *)
type outcome = {
  attempted : int;
  slices : float array;
      (** host seconds of each slice of the run, in order *)
  minor_words : float;  (** allocated by the run *)
  promoted_words : float;
  failed : int;
  error : string option;
  digest : string;
  answered : int;
  p50 : float;
  p95 : float;
  events : int;
  broadcasts : int;
  lock_acq : int;  (** summed over every replica *)
  ws_commits : int;
  ws_aborts : int;
  cpu_busy_frac : float;
  cross_group : int;
  held : int;
  splits : int;
}

let ratio a b = if b = 0.0 then 0.0 else a /. b

let now = Unix.gettimeofday

let digest_of ~answered ~reply_times ~times ~events =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d %d %h %h %h|" answered events (Summary.mean times)
    (Summary.median times)
    (Summary.quantile times 0.95);
  List.iter (fun t -> Printf.bprintf b "%h " t) reply_times;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Run one prepared configuration to completion and check it.  A request
   fails when it is unanswered or answered twice; every request of a run
   fails when the run deadlocks or its replicas disagree ([consistent]; on
   elastic systems also [states_agree] and [epochs_agree]).

   [cuts] (ascending event counts) splits the run into slices that are
   timed one by one: the clients start and the instant-0 events run in the
   first slice, then [Engine.step] — the loop [Engine.run] itself is —
   advances to each cut in turn and finally drains the queue. *)
let run ?(wrap = fun s -> s) ?(cuts = [||]) ~seed cfg p =
  let attempted = cfg.clients * cfg.requests_per_client in
  let n = Array.length cuts in
  let slices = Array.make (n + 1) 0.0 in
  (* Only the simulation itself is timed and its allocation counted; the
     checks below are the benchmark's own work. *)
  let m0 = Gc.minor_words () and s0 = Gc.quick_stat () in
  let error =
    try
      let mark = ref (now ()) in
      let lap i =
        let t = now () in
        slices.(i) <- t -. !mark;
        mark := t
      in
      ignore
        (Client.run_clients_stats_on ~engine:p.engine
           ~submit:(wrap (submit_of p.system))
           ~clients:cfg.clients ~requests_per_client:cfg.requests_per_client
           ~gen:p.gen ~seed
           ?until_ms:(if n = 0 then None else Some 0.0)
           ());
      for i = 0 to n do
        let cut = if i < n then cuts.(i) else max_int in
        while Engine.events_executed p.engine < cut && Engine.step p.engine do
          ()
        done;
        lap i
      done;
      None
    with e -> Some (Printexc.to_string e)
  in
  let m1 = Gc.minor_words () and s1 = Gc.quick_stat () in
  let answered, duplicates, consistent, times, reply_times, broadcasts =
    match p.system with
    | Group a ->
      let r = Consistency.check (Active.live_replicas a) in
      ( Active.replies_received a,
        Active.duplicate_client_replies a,
        r.Consistency.states_agree && r.Consistency.acquisitions_agree,
        Active.response_times a,
        Active.reply_times a,
        Active.broadcasts a )
    | Elastic r ->
      ( Reconfig.replies_received r,
        Reconfig.duplicate_client_replies r,
        Reconfig.consistent r && Reconfig.states_agree r
        && Reconfig.epochs_agree r,
        Reconfig.response_times r,
        Reconfig.reply_times r,
        Reconfig.broadcasts r )
  in
  (* With closed-loop clients and no think time, a drained engine with an
     unanswered request is a deadlock. *)
  let failed =
    if error <> None || (not consistent) || answered < attempted then
      attempted
    else min attempted duplicates
  in
  let events = Engine.events_executed p.engine in
  let replicas = all_replicas p.system in
  let sum f = List.fold_left (fun n r -> n + f r) 0 replicas in
  let elastic f = match p.system with Elastic r -> f r | Group _ -> 0 in
  { attempted; failed; error; slices;
    minor_words = m1 -. m0;
    promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
    digest = digest_of ~answered ~reply_times ~times ~events;
    answered;
    p50 = Summary.median times;
    p95 = Summary.quantile times 0.95;
    events; broadcasts;
    lock_acq = sum Replica.lock_acquisitions;
    ws_commits = sum Replica.ws_commits;
    ws_aborts = sum Replica.ws_aborts;
    cpu_busy_frac =
      (match first_system p.system with
      | Some a ->
        ratio
          (Replica.cpu_busy_ms (List.hd (Active.replicas a)))
          (Engine.now p.engine
          *. float_of_int (Active.params a).Active.config.Runtime_config.cores)
      | None -> 0.0);
    cross_group = elastic Reconfig.cross_group_requests;
    held = elastic Reconfig.held_requests;
    splits = elastic Reconfig.splits }

(* ------------------------------------------------------------------ *)
(* Host measurement                                                    *)

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean = function
  | [] -> 0.0
  | xs ->
    exp
      (List.fold_left (fun s x -> s +. log x) 0.0 xs
      /. float_of_int (List.length xs))

(* One pass over a workload: each configuration is set up, the heap is
   brought to the same state, and the configuration is run.  [cuts], one
   array per configuration, splits each run into slices timed one by
   one. *)
type pass = {
  outcomes : outcome list;
  wall : float;  (** host seconds of the runs *)
  minor_words : float;
  promoted_words : float;
}

let timed_pass ?wrap ?(after = fun _ _ -> ()) ?cuts ~seed ~obs cfgs =
  let cuts =
    match cuts with Some c -> c | None -> List.map (fun _ -> [||]) cfgs
  in
  let outcomes =
    List.map2
      (fun cfg cuts ->
        let recorder = obs cfg in
        let p = prepare cfg recorder in
        Gc.full_major ();
        let o = run ?wrap ~cuts ~seed cfg p in
        after cfg recorder;
        o)
      cfgs cuts
  in
  let total f = List.fold_left (fun s o -> s +. f o) 0.0 outcomes in
  { outcomes;
    wall = total (fun o -> Array.fold_left ( +. ) 0.0 o.slices);
    minor_words = total (fun o -> o.minor_words);
    promoted_words = total (fun o -> o.promoted_words) }

let answered pass =
  List.fold_left (fun n o -> n + o.answered) 0 pass.outcomes

let attempted pass =
  List.fold_left (fun n o -> n + o.attempted) 0 pass.outcomes

(* Failures of [pass], plus — when a reference pass is given — every
   request of a configuration whose virtual-time results differ from the
   reference's.  Repeated runs must be bit-identical, and so must a traced
   run and its untraced twin (obs invisibility). *)
let failed ?reference pass =
  let same =
    match reference with
    | None -> List.map (fun _ -> true) pass.outcomes
    | Some r ->
      List.map2 (fun a b -> a.digest = b.digest) pass.outcomes r.outcomes
  in
  List.fold_left2
    (fun n o ok -> n + if ok then o.failed else o.attempted)
    0 pass.outcomes same

let report_errors name pass =
  List.iter
    (fun o ->
      Option.iter (fun e -> Printf.eprintf "%s: run failed: %s\n%!" name e)
        o.error)
    pass.outcomes

(* Run passes until [seconds] have elapsed, at least [min_passes] times. *)
let repeat ~seconds ~min_passes f =
  let t0 = now () in
  let rec go acc n =
    if n >= min_passes && now () -. t0 >= seconds then List.rev acc
    else go (f n :: acc) (n + 1)
  in
  go [] 0

(* Set-up cost: every configuration of the workload set up from scratch.
   One round times [batch] consecutive set-ups, so that the clock's
   microsecond resolution does not dominate; each sample is a round's time
   divided by [batch]. *)
let setup_samples ~rounds ~batch cfgs =
  List.init rounds (fun _ ->
      Gc.full_major ();
      let t0 = now () in
      for _ = 1 to batch do
        List.iter (fun cfg -> ignore (prepare cfg Recorder.disabled)) cfgs
      done;
      (now () -. t0) /. float_of_int batch)

(* The check of the check: freefall (no synchronisation) on Figure 1 at 16
   clients x 4 requests, seed 42, has replicas that disagree, so the run
   must count as failed in full. *)
let selftest () =
  let cfg = fig1 ~clients:16 ~requests_per_client:4 "freefall" in
  let o = run ~seed:42L cfg (prepare cfg Recorder.disabled) in
  Printf.eprintf "selftest: freefall fig1 16x4 -> %d of %d requests failed\n%!"
    o.failed o.attempted;
  o.attempted > 0 && o.failed = o.attempted

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  let metric (name, unit, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics                                       *)

(* Host time on a shared machine varies by tens of percent from one second
   to the next, and only ever upwards.  The end-to-end run therefore cuts
   every configuration's run into [slices] spans of equally many events —
   the same deterministic work in every pass — and charges each span the
   least host time any pass needed for it: the time the workload takes when
   nothing else slows the machine down. *)
let slices = 512

let cuts_of reference =
  List.map
    (fun o -> Array.init (slices - 1) (fun i -> o.events * (i + 1) / slices))
    reference.outcomes

let best_time passes =
  match List.map (fun p -> List.map (fun o -> o.slices) p.outcomes) passes with
  | [] -> 0.0
  | first :: rest ->
    List.fold_left (List.map2 (Array.map2 Float.min)) first rest
    |> List.fold_left (fun s a -> Array.fold_left ( +. ) s a) 0.0

let end_to_end ~name ~seed ~seconds cfgs =
  let selftest_ok = selftest () in
  let off _ = Recorder.disabled in
  (* Set-up is sampled between the passes, so that its median spans the
     whole run rather than one moment of it. *)
  let setup = ref [] in
  let sample_setup () =
    setup := setup_samples ~rounds:5 ~batch:50 cfgs @ !setup
  in
  sample_setup ();
  (* The first pass is the reference: an uncut run whose event counts place
     the cuts, whose allocation is reported, and whose results every later
     pass must repeat bit for bit. *)
  let warm = timed_pass ~seed ~obs:off cfgs in
  let cuts = cuts_of warm in
  let passes =
    repeat ~seconds ~min_passes:5 (fun _ ->
        let p = timed_pass ~cuts ~seed ~obs:off cfgs in
        sample_setup ();
        p)
  in
  let setup_s = median !setup in
  let best = best_time passes in
  List.iter (report_errors name) (warm :: passes);
  let attempted =
    List.fold_left (fun n p -> n + attempted p) 0 (warm :: passes)
  in
  let failed =
    List.fold_left (fun n p -> n + failed ~reference:warm p) 0 (warm :: passes)
  in
  let per_req f = ratio (f warm) (float_of_int (answered warm)) in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let ok_frac = 1.0 -. ratio (float_of_int failed) (float_of_int attempted) in
  Printf.eprintf "%s: pass walls (s): %s; best slices sum to %.3f s\n%!"
    name
    (String.concat " "
       (List.map (fun p -> Printf.sprintf "%.3f" p.wall) passes))
    best;
  result_line ~correct:(selftest_ok && failed = 0) ~attempted ~failed
    [ ("req_per_s", "req/s", ratio (float_of_int (answered warm)) best);
      ("words_per_req", "words", per_req (fun p -> p.minor_words));
      ("promoted_words_per_req", "words", per_req (fun p -> p.promoted_words));
      ("peak_heap_mb", "MB",
       float_of_int (heap * (Sys.word_size / 8)) /. 1e6);
      ("setup_s", "s", setup_s);
      ("sim_resp_p50_ms", "virtual_ms",
       geomean (List.map (fun o -> o.p50) warm.outcomes));
      ("sim_resp_p95_ms", "virtual_ms",
       geomean (List.map (fun o -> o.p95) warm.outcomes));
      ("req_ok_frac", "fraction", ok_frac) ]

(* ------------------------------------------------------------------ *)
(* Isolated layer drivers                                              *)

(* The transformation the configuration's system constructor applies. *)
let transform cfg =
  if (Registry.find_exn cfg.scheduler).Registry.needs_prediction then
    fun src -> fst (Transform.predictive src)
  else Transform.basic

(* Host milliseconds of that transformation, summed over the workload's
   configurations: per configuration the median of 21 samples, each a batch
   of 100 transformations divided by 100. *)
let transform_ms cfgs =
  List.fold_left
    (fun acc cfg ->
      let f = transform cfg and src = cfg.source () in
      acc
      +. median
           (List.init 21 (fun _ ->
                let t0 = now () in
                for _ = 1 to 100 do
                  ignore (f src)
                done;
                (now () -. t0) *. 1000.0 /. 100.0)))
    0.0 cfgs

(* Totem alone: [broadcasts] messages over one bus with 3 subscribers, 64
   in flight, each delivery to subscriber 0 sending the next.  Host
   nanoseconds per point-to-point delivery, median of 5. *)
let totem_delivery_ns ~broadcasts =
  median
    (List.init 5 (fun _ ->
         let engine = Engine.create () in
         let bus : int Totem.t = Totem.create engine in
         let sent = ref 0 in
         let send () =
           if !sent < broadcasts then begin
             incr sent;
             ignore (Totem.broadcast bus ~sender:0 !sent)
           end
         in
         Totem.subscribe bus ~id:0 (fun _ -> send ());
         Totem.subscribe bus ~id:1 ignore;
         Totem.subscribe bus ~id:2 ignore;
         for _ = 1 to 64 do send () done;
         Gc.full_major ();
         let t0 = now () in
         Engine.run engine;
         ratio ((now () -. t0) *. 1e9) (float_of_int (Totem.deliveries bus))))

(* The interpreter alone: the workload's own requests (drawn exactly as the
   closed-loop clients draw them) run through [Interp.start] against one
   [Object_state] per configuration, every yielded op completed at once.
   Host nanoseconds and minor words per request, median of 5. *)
let interp_cost ~seed cfgs =
  let jobs =
    List.map
      (fun cfg ->
        let cls = transform cfg (cfg.source ()) in
        let gen = cfg.gen_of () in
        let master = Rng.create seed in
        let reqs =
          List.concat
            (List.init cfg.clients (fun client ->
                 let rng = Rng.split master in
                 List.init cfg.requests_per_client (fun seq ->
                     let meth, args = gen ~client ~seq rng in
                     (client, seq, meth, args))))
        in
        (cls, reqs))
      cfgs
  in
  let requests =
    List.fold_left (fun n (_, r) -> n + List.length r) 0 jobs
  in
  let once () =
    Gc.full_major ();
    let m0 = Gc.minor_words () in
    let t0 = now () in
    List.iter
      (fun (cls, reqs) ->
        let obj = Object_state.create cls in
        let rec drive = function
          | Interp.Done -> ()
          | Interp.Yield (op, k) ->
            (match op with
            | Op.State_update { field; delta } ->
              Object_state.update_state obj field delta
            | _ -> ());
            drive (k ())
        in
        List.iteri
          (fun uid (client, client_req, meth, args) ->
            let req =
              Request.make ~uid ~client ~client_req ~meth ~args ~sent_at:0.0
            in
            drive (Interp.start ~cls ~obj ~req ()))
          reqs)
      jobs;
    let dt = now () -. t0 in
    let n = float_of_int requests in
    (dt *. 1e9 /. n, (Gc.minor_words () -. m0) /. n)
  in
  let runs = List.init 5 (fun _ -> once ()) in
  (median (List.map fst runs), median (List.map snd runs))

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics                                        *)

let mean_of f rows =
  match rows with
  | [] -> 0.0
  | _ ->
    List.fold_left (fun s r -> s +. f r) 0.0 rows
    /. float_of_int (List.length rows)

let span_json (v : Recorder.span_view) =
  let opt = function Some x -> Json.Float x | None -> Json.Null in
  Json.Obj
    [ ("replica", Json.Int v.Recorder.v_replica);
      ("uid", Json.Int v.v_uid);
      ("meth", Json.String v.v_meth);
      ("client", Json.Int v.v_client);
      ("delivered_at", Json.Float v.v_delivered_at);
      ("started_at", opt v.v_started_at);
      ("ended_at", opt v.v_ended_at);
      ("waits",
       Json.List
         (List.map
            (fun (k, a, b) ->
              Json.List
                [ Json.String (Recorder.wait_kind_name k); Json.Float a;
                  Json.Float b ])
            v.v_waits)) ]

let breakdown_json (b : Recorder.breakdown) =
  let f k v = (k, Json.Float v) in
  Json.Obj
    [ ("uid", Json.Int b.Recorder.uid); ("client", Json.Int b.client);
      ("client_req", Json.Int b.client_req); ("replica", Json.Int b.replica);
      f "client_queue" b.client_queue; f "broadcast" b.broadcast;
      f "sched_start" b.sched_start; f "lock_wait" b.lock_wait;
      f "policy_wait" b.policy_wait; f "reacquire_wait" b.reacquire_wait;
      f "condvar_wait" b.condvar_wait; f "nested_idle" b.nested_idle;
      f "resume_hold" b.resume_hold; f "commit_hold" b.commit_hold;
      f "exec" b.exec; f "reply_net" b.reply_net; f "total" b.total ]

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let layers ~name ~seed ~seconds ~out cfgs =
  let selftest_ok = selftest () in
  let transform_ms = transform_ms cfgs in
  (* Host time inside each submit call, on the profiled runs. *)
  let submit_s = ref 0.0 and submit_calls = ref 0 in
  let wrap (submit : Client.submit_fn) : Client.submit_fn =
   fun ~client ~client_req ~meth ~args ~on_reply ->
    let t0 = now () in
    submit ~client ~client_req ~meth ~args ~on_reply;
    submit_s := !submit_s +. (now () -. t0);
    incr submit_calls
  in
  let profile = Profile.create () in
  let breakdowns = ref [] in
  let spans_path =
    Filename.concat out (Printf.sprintf "%s-seed%Ld.spans.json" name seed)
  in
  (* An uncut untraced pass is the reference for counters, cuts and
     results; then triplets of cut untraced, profile-only and fully recorded
     passes, interleaved so that drift on the host hits all three alike. *)
  let base0 = timed_pass ~seed ~obs:(fun _ -> Recorder.disabled) cfgs in
  let cuts = cuts_of base0 in
  let triplets =
    repeat ~seconds ~min_passes:3 (fun i ->
        let base =
          timed_pass ~cuts ~seed ~obs:(fun _ -> Recorder.disabled) cfgs
        in
        let prof =
          timed_pass ~wrap ~cuts ~seed
            ~obs:(fun _ -> Recorder.profile_only profile)
            cfgs
        in
        (* The first recorded pass keeps each configuration's spans in
           memory only until the configuration ends, then renders them;
           they are written out together once the pass is over. *)
        let chunks = ref [] in
        let keep cfg r =
          let bds = Recorder.breakdowns r in
          breakdowns := !breakdowns @ bds;
          chunks :=
            Json.to_string
              (Json.Obj
                 [ ("config", Json.String cfg.label);
                   ("breakdowns", Json.List (List.map breakdown_json bds));
                   ("spans",
                    Json.List (List.map span_json (Recorder.spans r))) ])
            :: !chunks
        in
        let recd =
          timed_pass ~cuts ~seed
            ?after:(if i = 0 then Some keep else None)
            ~obs:(fun _ -> Recorder.create ())
            cfgs
        in
        if i = 0 then
          write_file spans_path
            (Printf.sprintf "{\"workload\":%s,\"seed\":%Ld,\"configs\":[%s]}"
               (Json.to_string (Json.String name))
               seed
               (String.concat "," (List.rev !chunks)));
        (base, prof, recd))
  in
  let _, _, recd0 = List.hd triplets in
  report_errors name base0;
  List.iter
    (fun (b, p, r) ->
      report_errors name b; report_errors name p; report_errors name r)
    triplets;
  let attempted =
    List.fold_left
      (fun n (b, p, r) -> n + attempted b + attempted p + attempted r)
      (attempted base0) triplets
  in
  let failed =
    List.fold_left
      (fun n (b, p, r) ->
        n + failed ~reference:base0 b + failed ~reference:base0 p
        + failed ~reference:base0 r)
      (failed base0) triplets
  in
  (* Overheads compare best-of-slices times, as [req_per_s] does. *)
  let best_of f = best_time (List.map f triplets) in
  let best_base = best_of (fun (b, _, _) -> b) in
  let overhead f = 100.0 *. ratio (best_of f -. best_base) best_base in
  let sum f = List.fold_left (fun s o -> s +. float_of_int (f o)) 0.0 in
  let reqs = float_of_int (answered base0) in
  let per_req f = ratio (sum f base0.outcomes) reqs in
  let broadcasts = int_of_float (sum (fun o -> o.broadcasts) base0.outcomes) in
  let interp_ns, interp_words = interp_cost ~seed cfgs in
  let phase name =
    match
      List.find_opt
        (fun r -> r.Profile.p_phase = name)
        (Profile.phase_rows profile)
    with
    | Some r -> ratio (r.p_seconds *. 1e9) (float_of_int r.p_calls)
    | None -> 0.0
  in
  let decisions = Profile.decision_rows profile in
  let decide_s =
    List.fold_left (fun s r -> s +. r.Profile.d_seconds) 0.0 decisions
  and decide_calls =
    List.fold_left (fun n r -> n + r.Profile.d_calls) 0 decisions
  in
  let prof_passes = List.map (fun (_, p, _) -> p) triplets in
  let prof_wall = List.fold_left (fun s p -> s +. p.wall) 0.0 prof_passes
  and prof_reqs =
    List.fold_left (fun n p -> n + answered p) 0 prof_passes
  in
  let per_replica f =
    ratio
      (sum f base0.outcomes)
      (reqs *. float_of_int Active.default_params.Active.replicas)
  in
  let commits = sum (fun o -> o.ws_commits) base0.outcomes
  and aborts = sum (fun o -> o.ws_aborts) base0.outcomes in
  let bd f = mean_of f !breakdowns in
  let metrics =
    [ ("sim.events_per_req", "events", per_req (fun o -> o.events));
      ("sim.pop_ns", "ns", phase "pop");
      ("sim.dispatch_ns", "ns", phase "dispatch");
      ("gcs.broadcasts_per_req", "msgs", per_req (fun o -> o.broadcasts));
      ("gcs.order_wait_ms", "virtual_ms", bd (fun b -> b.Recorder.broadcast));
      ("gcs.delivery_ns", "ns", totem_delivery_ns ~broadcasts);
      ("runtime.interp_ns_per_req", "ns", interp_ns);
      ("runtime.interp_words_per_req", "words", interp_words);
      ("runtime.exec_ms", "virtual_ms", bd (fun b -> b.Recorder.exec));
      ("runtime.nested_idle_ms", "virtual_ms",
       bd (fun b -> b.Recorder.nested_idle));
      ("runtime.cpu_busy_frac", "fraction",
       mean_of (fun o -> o.cpu_busy_frac) base0.outcomes);
      ("runtime.lock_acq_per_req", "count",
       per_replica (fun o -> o.lock_acq));
      ("runtime.ws_commits_per_req", "count",
       per_replica (fun o -> o.ws_commits));
      ("runtime.ws_abort_frac", "fraction", ratio aborts (commits +. aborts));
      ("runtime.commit_hold_ms", "virtual_ms",
       bd (fun b -> b.Recorder.commit_hold));
      ("sched.decide_ns", "ns",
       ratio (decide_s *. 1e9) (float_of_int decide_calls));
      ("sched.callbacks_per_req", "calls",
       ratio (float_of_int decide_calls) (float_of_int prof_reqs));
      ("sched.decide_share", "fraction", ratio decide_s prof_wall);
      ("sched.grant_ns", "ns", phase "grant");
      ("sched.start_wait_ms", "virtual_ms",
       bd (fun b -> b.Recorder.sched_start));
      ("sched.lock_wait_ms", "virtual_ms", bd (fun b -> b.Recorder.lock_wait));
      ("sched.policy_wait_ms", "virtual_ms",
       bd (fun b -> b.Recorder.policy_wait));
      ("replication.submit_ns", "ns",
       ratio (!submit_s *. 1e9) (float_of_int !submit_calls));
      ("replication.cross_group_frac", "fraction",
       per_req (fun o -> o.cross_group));
      ("replication.held_frac", "fraction", per_req (fun o -> o.held));
      ("replication.splits", "count",
       sum (fun o -> o.splits) base0.outcomes);
      ("replication.client_queue_ms", "virtual_ms",
       bd (fun b -> b.Recorder.client_queue));
      ("replication.reply_net_ms", "virtual_ms",
       bd (fun b -> b.Recorder.reply_net));
      ("transform.ms", "ms", transform_ms);
      ("obs.profile_overhead_pct", "%", overhead (fun (_, p, _) -> p));
      ("obs.record_overhead_pct", "%", overhead (fun (_, _, r) -> r));
      ("obs.record_words_per_req", "words",
       ratio recd0.minor_words (float_of_int (answered recd0))) ]
  in
  write_file
    (Filename.concat out (Printf.sprintf "%s-seed%Ld.layers.json" name seed))
    (Json.to_string
       (Json.Obj
          [ ("workload", Json.String name);
            ("seed", Json.String (Int64.to_string seed));
            ("triplets", Json.Int (List.length triplets));
            ("spans", Json.String (Filename.basename spans_path));
            ("per_layer",
             Json.Obj
               (List.map
                  (fun (n, u, v) ->
                    (n, Json.Obj [ ("value", Json.Float v);
                                   ("unit", Json.String u) ]))
                  metrics)) ]));
  result_line ~correct:(selftest_ok && failed = 0) ~attempted ~failed metrics

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let () =
  let workload = ref "" and seed = ref 42L and seconds = ref 25.0
  and trace = ref 0 and out = ref ".bench_out" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s),
       "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 25)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--out", Arg.Set_string out, "DIR where --trace 1 writes its files") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "detmt_perfbench.exe --workload NAME [--seed N] [--seconds S] [--trace \
     0|1]";
  match List.assoc_opt !workload workloads with
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n" !workload
      (String.concat ", " (List.map fst workloads));
    exit 2
  | Some cfgs -> (
    let name = !workload and seed = !seed and seconds = !seconds in
    match !trace with
    | 0 -> end_to_end ~name ~seed ~seconds cfgs
    | 1 ->
      if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
      layers ~name ~seed ~seconds ~out:!out cfgs
    | n ->
      Printf.eprintf "--trace must be 0 or 1, not %d\n" n;
      exit 2)
