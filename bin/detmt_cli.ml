(* detmt-cli: command-line driver for the deterministic-multithreading
   experiments.

   [bench] runs any experiment of {!Detmt.Experiment.all} (every figure of
   the paper and every derived grid); [run] executes a single configuration
   with full control over the parameters, and [schedulers] lists the
   available decision modules.  All subcommands share the flag vocabulary of
   {!Cli_args}: [--scheduler], [--workload], [--seed], [--shards], [-o]. *)

open Cmdliner

let print_table t = Format.printf "%a@." Detmt.Table.pp t

let csv_flag = Cli_args.csv

let emit csv t =
  if csv then print_string (Detmt.Table.to_csv t) else print_table t

(* ------------------------------ run --------------------------------- *)

let scheduler_arg = Cli_args.scheduler

let clients_arg = Cli_args.clients

let requests_arg = Cli_args.requests

let replicas_arg = Cli_args.replicas

let seed_arg = Cli_args.seed

let workers_arg = Cli_args.workers

let workload_arg = Cli_args.workload

let latency_arg = Cli_args.latency

let file_arg = Cli_args.file

let load_dml path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  match Detmt.Dml.parse src with
  | Ok cls -> cls
  | Error msg ->
    Format.eprintf "%s: %s@." path msg;
    exit 2

let resolve_workload = function
  | "figure1" ->
    ( Detmt.Figure1.cls Detmt.Figure1.default,
      Detmt.Figure1.gen Detmt.Figure1.default )
  | "compute-heavy" ->
    ( Detmt.Figure1.cls Detmt.Figure1.compute_heavy,
      Detmt.Figure1.gen Detmt.Figure1.compute_heavy )
  | "disjoint" ->
    (Detmt.Disjoint.cls Detmt.Disjoint.default, Detmt.Disjoint.gen)
  | "tail" ->
    ( Detmt.Tail_compute.cls Detmt.Tail_compute.default,
      Detmt.Tail_compute.gen Detmt.Tail_compute.default )
  | "prodcons" ->
    (Detmt.Prodcons.cls Detmt.Prodcons.default, Detmt.Prodcons.gen)
  | "sharded" ->
    ( Detmt.Sharded.cls Detmt.Sharded.default,
      Detmt.Sharded.gen Detmt.Sharded.default )
  | "hotspot" ->
    ( Detmt.Hotspot.cls Detmt.Hotspot.default,
      Detmt.Hotspot.gen Detmt.Hotspot.default )
  | other -> failwith (Printf.sprintf "unknown workload %S" other)

let histogram_flag =
  Arg.(value & flag
       & info [ "histogram" ]
           ~doc:"Also print a response-time histogram.")

let run_cmd =
  let run scheduler workers clients requests replicas seed workload latency
      histogram =
    let cls, gen = resolve_workload workload in
    let params =
      { Detmt.Active.default_params with
        scheduler; workers; replicas; net_latency_ms = latency }
    in
    (* The recorder is read-only: the run is the same with or without it. *)
    let obs =
      if histogram then Detmt.Recorder.create () else Detmt.Recorder.disabled
    in
    let result =
      Detmt.Experiment.run_workload ~seed:(Int64.of_int seed) ~params
        ~requests_per_client:requests ~obs ~scheduler ~clients ~cls ~gen ()
    in
    Format.printf "scheduler:    %s@." result.Detmt.Experiment.scheduler;
    Format.printf "workload:     %s@." workload;
    Format.printf "clients:      %d x %d requests@." clients requests;
    Format.printf "replies:      %d@." result.replies;
    Format.printf "mean:         %.2f ms@." result.mean_response_ms;
    Format.printf "p95:          %.2f ms@." result.p95_response_ms;
    Format.printf "throughput:   %.1f req/s@." result.throughput_per_s;
    Format.printf "makespan:     %.1f virtual ms@." result.duration_ms;
    Format.printf "broadcasts:   %d (%s)@." result.broadcasts
      (String.concat ", "
         (List.map
            (fun (k, v) -> Printf.sprintf "%s=%d" k v)
            result.message_kinds));
    Format.printf "cpu busy:     %.1f ms (replica 0)@." result.cpu_busy_ms;
    Format.printf "consistent:   %b@." result.consistent;
    match
      Detmt.Metrics.view (Detmt.Recorder.metrics obs) "active.response_ms"
    with
    | Some (Detmt.Metrics.Hist_view h) ->
      Format.printf "@.response-time histogram (ms): %a@." Detmt.Hdr.pp h;
      List.iter
        (fun (le, n) -> Format.printf "  <= %9.3f  %d@." le n)
        (Detmt.Hdr.cumulative h)
    | Some _ | None -> ()
  in
  let term =
    Term.(
      const run $ scheduler_arg $ workers_arg $ clients_arg $ requests_arg
      $ replicas_arg $ seed_arg $ workload_arg $ latency_arg $ histogram_flag)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload under one scheduler and report.")
    term

let schedulers_cmd =
  let show () =
    List.iter
      (fun s ->
        Format.printf "%-9s %s%s@." s.Detmt.Registry.name
          s.Detmt.Registry.description
          (if s.Detmt.Registry.needs_prediction then
             "  [needs predictive transform]"
           else ""))
      Detmt.Registry.all
  in
  Cmd.v
    (Cmd.info "schedulers" ~doc:"List the available decision modules.")
    Term.(const show $ const ())

(* Machine-checkable registry listing: one row per decision module with its
   determinism and prediction flags.  CI greps this to assert the registry
   is complete. *)
let sched_cmd =
  let show () =
    Format.printf "%-9s %-13s %-10s %s@." "NAME" "DETERMINISTIC"
      "PREDICTION" "DESCRIPTION";
    List.iter
      (fun s ->
        Format.printf "%-9s %-13s %-10s %s@." s.Detmt.Registry.name
          (if s.Detmt.Registry.deterministic then "yes" else "no")
          (if s.Detmt.Registry.needs_prediction then "yes" else "no")
          s.Detmt.Registry.description)
      Detmt.Registry.all
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:
         "List every registered scheduler with its determinism and \
          prediction flags.")
    Term.(const show $ const ())

let transform_cmd =
  let show workload file predictive =
    let cls =
      match file with
      | Some path -> load_dml path
      | None -> fst (resolve_workload workload)
    in
    let transformed =
      if predictive then fst (Detmt.Transform.predictive cls)
      else Detmt.Transform.basic cls
    in
    Format.printf "%a@." Detmt.Pretty.class_def transformed
  in
  let predictive_flag =
    Arg.(value & flag
         & info [ "predictive" ]
             ~doc:"Apply the predictive transformation (with lock \
                   announcements) instead of the basic one.")
  in
  Cmd.v
    (Cmd.info "transform"
       ~doc:"Print a workload class after the scheduler-call transformation.")
    Term.(const show $ workload_arg $ file_arg $ predictive_flag)

let timeline_cmd =
  let show scheduler workload clients =
    let workload_tag =
      match workload with
      | "disjoint" -> `Disjoint
      | "tail" | _ -> `Tail
    in
    let tl =
      Detmt.Experiment.timeline ~scheduler ~workload:workload_tag ~clients ()
    in
    Detmt.Timeline.render Format.std_formatter tl
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Draw the per-thread schedule of a small run (the visual form of \
          figures 2 and 3).")
    Term.(const show $ scheduler_arg $ workload_arg $ clients_arg)

let analyse_cmd =
  let show workload file =
    let cls =
      match file with
      | Some path -> load_dml path
      | None -> fst (resolve_workload workload)
    in
    let _, summary = Detmt.Transform.predictive cls in
    Format.printf "prediction summary of %s:@."
      summary.Detmt.Predict.class_name;
    List.iter
      (fun (m : Detmt.Predict.method_summary) ->
        Format.printf "  %s:%s@." m.mname
          (if m.fallback then
             Printf.sprintf " FALLBACK (%s)"
               (Option.value ~default:"?" m.fallback_reason)
           else "");
        List.iter
          (fun (i : Detmt.Predict.sid_info) ->
            Format.printf "    sid %-3d %-18s %s%s@." i.sid
              (Format.asprintf "%a" Detmt.Pretty.sync_param i.param)
              (Detmt.Param_class.show i.classification)
              (match i.in_loops with
              | [] -> ""
              | l ->
                "  [in loops "
                ^ String.concat "," (List.map string_of_int l)
                ^ "]"))
          m.sids;
        List.iter
          (fun (l : Detmt.Predict.loop_info) ->
            Format.printf "    loop %-2d sids={%s} %s%s@." l.lid
              (String.concat "," (List.map string_of_int l.sids))
              (if l.changing then "changing" else "fixed")
              (if l.opaque then " (opaque call)" else ""))
          m.loops)
      summary.Detmt.Predict.methods;
    Detmt.Interference.pp_report Format.std_formatter
      (Detmt.Interference.analyse cls)
  in
  Cmd.v
    (Cmd.info "analyse"
       ~doc:
         "Print the static lock analysis of a workload: prediction summary \
          and interference report.")
    Term.(const show $ workload_arg $ file_arg)

(* ------------------------- flight recorder -------------------------- *)

let output_arg = Cli_args.output

let write_out out s =
  match out with
  | None -> print_string s
  | Some path ->
    let oc = open_out path in
    output_string oc s;
    close_out oc;
    Format.eprintf "wrote %s@." path

(* Run one configuration with the flight recorder on.  Determinism contract:
   this is the exact run [detmt-cli run] performs with the same flags — the
   recorder is read-only.  [shards > 1] records the sharded system instead
   (shard 0's metric names are the unsharded ones, so the single-shard
   recording is unchanged). *)
let record_run ?obs ~scheduler ~clients ~requests ~replicas ~seed ~workload
    ~latency ~shards () =
  let cls, gen = resolve_workload workload in
  let params =
    { Detmt.Active.default_params with
      scheduler; replicas; net_latency_ms = latency }
  in
  let obs = match obs with Some o -> o | None -> Detmt.Recorder.create () in
  if shards <= 1 then
    ignore
      (Detmt.Experiment.run_workload ~seed:(Int64.of_int seed) ~params
         ~requests_per_client:requests ~obs ~scheduler ~clients ~cls ~gen ())
  else begin
    let engine = Detmt.Engine.create () in
    let system =
      Detmt.Shard.create ~obs ~engine ~cls
        ~params:{ Detmt.Shard.shards; base = params } ()
    in
    Detmt.Shard.run_clients system ~clients ~requests_per_client:requests
      ~gen ~seed:(Int64.of_int seed) ()
  end;
  obs

let trace_shards_arg =
  Cli_args.shards ~default:1
    ~doc:
      "Record the sharded system with this many groups instead of the \
       single-group one (1 = the unsharded path)."

let trace_format_arg =
  let doc =
    "Export format: breakdown (per-request latency table), chrome \
     (trace-event JSON for Perfetto / chrome://tracing), audit (scheduler \
     decision log), critical (dominant latency component per request, \
     aggregated overall / per shard / per epoch)."
  in
  Arg.(value & opt string "breakdown" & info [ "format" ] ~docv:"FMT" ~doc)

let trace_cmd =
  let run scheduler clients requests replicas seed workload latency shards
      format csv out =
    let obs =
      record_run ~scheduler ~clients ~requests ~replicas ~seed ~workload
        ~latency ~shards ()
    in
    match format with
    | "breakdown" ->
      let title =
        Printf.sprintf
          "Per-request latency breakdown (ms): %s on %s, %d clients x %d \
           requests"
          scheduler workload clients requests
      in
      let t = Detmt.Recorder.breakdown_table ~title obs in
      (match out with
      | None -> emit csv t
      | Some _ ->
        write_out out
          (if csv then Detmt.Table.to_csv t
           else Format.asprintf "%a@." Detmt.Table.pp t))
    | "chrome" -> write_out out (Detmt.Chrome.to_string obs)
    | "critical" ->
      let report = Detmt.Critical_path.analyse ~replicas obs in
      let title =
        Printf.sprintf
          "Critical path: %s on %s, %d clients x %d requests" scheduler
          workload clients requests
      in
      let t = Detmt.Critical_path.table ~title report in
      (match out with
      | None -> emit csv t
      | Some _ ->
        write_out out
          (if csv then Detmt.Table.to_csv t
           else Format.asprintf "%a@." Detmt.Table.pp t))
    | "audit" ->
      let buf = Buffer.create 4096 in
      let ppf = Format.formatter_of_buffer buf in
      List.iter
        (fun e -> Format.fprintf ppf "%a@." Detmt.Audit.pp_entry e)
        (Detmt.Recorder.audit_entries obs);
      Format.pp_print_flush ppf ();
      write_out out (Buffer.contents buf)
    | other ->
      Format.eprintf "unknown trace format %S (breakdown, chrome, audit)@."
        other;
      exit 2
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one workload with the flight recorder on and export the \
          request spans: a per-request latency breakdown whose columns sum \
          to the measured response time, Chrome trace-event JSON, or the \
          scheduler decision audit log.")
    Term.(
      const run $ scheduler_arg $ clients_arg $ requests_arg $ replicas_arg
      $ seed_arg $ workload_arg $ latency_arg $ trace_shards_arg
      $ trace_format_arg $ csv_flag $ output_arg)

(* Render the windowed time series as extra CSV-safe table rows: one row
   per track with the per-window headline values joined by commas — label
   cells containing commas exercise the CSV quoting path. *)
let series_table ~title ts =
  let t =
    Detmt.Table.create ~title
      ~columns:[ "series"; "kind"; "windows"; "peak"; "values" ]
  in
  List.iter
    (fun name ->
      match Detmt.Timeseries.kind ts name with
      | None -> ()
      | Some kind ->
        let wins = Detmt.Timeseries.windows ts name in
        Detmt.Table.add_row t
          [ name;
            (match kind with
            | Detmt.Timeseries.Rate -> "rate"
            | Detmt.Timeseries.Sample -> "sample");
            string_of_int (List.length wins);
            Printf.sprintf "%g" (Detmt.Timeseries.peak ts name);
            String.concat ","
              (List.map
                 (fun w ->
                   Printf.sprintf "%g" (Detmt.Timeseries.window_value kind w))
                 wins) ])
    (Detmt.Timeseries.names ts);
  t

let metrics_cmd =
  let run scheduler clients requests replicas seed workload latency shards
      csv json format series out =
    let obs =
      record_run ~scheduler ~clients ~requests ~replicas ~seed ~workload
        ~latency ~shards ()
    in
    let m = Detmt.Recorder.metrics obs in
    match format with
    | "openmetrics" -> write_out out (Detmt.Openmetrics.export m)
    | "table" ->
      if json then
        write_out out (Detmt.Json.to_string (Detmt.Metrics.to_json m))
      else
        let title =
          Printf.sprintf "Metrics: %s on %s, %d clients x %d requests"
            scheduler workload clients requests
        in
        let t = Detmt.Metrics.to_table ~title m in
        let render t =
          if csv then Detmt.Table.to_csv t
          else Format.asprintf "%a@." Detmt.Table.pp t
        in
        let body =
          render t
          ^
          if series then
            render
              (series_table ~title:"Windowed series (virtual time)"
                 (Detmt.Recorder.timeseries obs))
          else ""
        in
        (match out with None -> print_string body | Some _ -> write_out out body)
    | other ->
      Format.eprintf "unknown metrics format %S (table, openmetrics)@." other;
      exit 2
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the registry as JSON.")
  in
  let format_arg =
    Arg.(
      value
      & opt string "table"
      & info [ "f"; "format" ] ~docv:"FMT"
          ~doc:
            "Output format: table (default; honours $(b,--csv)/$(b,--json)) \
             or openmetrics (OpenMetrics text exposition).")
  in
  let series_flag =
    Arg.(
      value & flag
      & info [ "series" ]
          ~doc:
            "Also print the virtual-time-windowed series (one row per \
             track, per-window values).")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run one workload with the flight recorder on and print the \
          metrics registry: scheduler grants/deferrals/queue depths, Totem \
          broadcast/retransmit/dedup counters, replica request counters.  \
          $(b,-f openmetrics) emits the OpenMetrics text exposition; \
          $(b,--series) appends the windowed virtual-time series.")
    Term.(
      const run $ scheduler_arg $ clients_arg $ requests_arg $ replicas_arg
      $ seed_arg $ workload_arg $ latency_arg $ trace_shards_arg $ csv_flag
      $ json_flag $ format_arg $ series_flag $ output_arg)

(* ----------------------------- profile ------------------------------ *)

(* Hot-path profile of one configuration: wall-clock phase timers
   (pop/dispatch/grant/flush), per-decision-module cost, and allocation
   accounting.  The baseline is the identical run with observability fully
   off; the profiled run uses [Recorder.profile_only], whose metric/span
   sites stay no-ops, so the reported overhead is the cost of the timers
   alone.  Both sides take the best of [repeats] runs to shave scheduler
   noise off the comparison. *)
let profile_cmd =
  let run scheduler clients requests replicas seed workload latency shards
      repeats check_overhead json out =
    if repeats < 1 then begin
      Format.eprintf "profile: --repeats must be >= 1@.";
      exit 2
    end;
    let timed obs =
      Gc.compact ();
      let t0 = Unix.gettimeofday () in
      ignore
        (record_run ~obs ~scheduler ~clients ~requests ~replicas ~seed
           ~workload ~latency ~shards ());
      Unix.gettimeofday () -. t0
    in
    let best f =
      List.fold_left Stdlib.min infinity (List.init repeats (fun _ -> f ()))
    in
    let wall_baseline = best (fun () -> timed Detmt.Recorder.disabled) in
    let p = Detmt.Profile.create () in
    let wall_profiled =
      best (fun () ->
          Detmt.Profile.reset p;
          timed (Detmt.Recorder.profile_only p))
    in
    let overhead_pct =
      if wall_baseline <= 0.0 then 0.0
      else (wall_profiled -. wall_baseline) /. wall_baseline *. 100.0
    in
    if json then begin
      let doc =
        Detmt.Json.Obj
          [ ("scheduler", Detmt.Json.String scheduler);
            ("workload", Detmt.Json.String workload);
            ("clients", Detmt.Json.Int clients);
            ("requests", Detmt.Json.Int requests);
            ("shards", Detmt.Json.Int shards);
            ("repeats", Detmt.Json.Int repeats);
            ("profile", Detmt.Profile.to_json p);
            ("wall_baseline_s", Detmt.Json.Float wall_baseline);
            ("wall_profiled_s", Detmt.Json.Float wall_profiled);
            ("overhead_pct", Detmt.Json.Float overhead_pct) ]
      in
      write_out out (Detmt.Json.to_string doc ^ "\n")
    end
    else begin
      let title =
        Printf.sprintf "Hot-path profile: %s on %s, %d clients x %d requests"
          scheduler workload clients requests
      in
      print_table (Detmt.Profile.to_table ~title p);
      let a = Detmt.Profile.alloc p in
      Format.printf "allocation:    %.0f minor + %.0f major words (%.0f \
                     promoted)@."
        a.Detmt.Profile.minor_words a.major_words a.promoted_words;
      Format.printf "wall baseline: %.4f s (best of %d, obs off)@."
        wall_baseline repeats;
      Format.printf "wall profiled: %.4f s (best of %d)@." wall_profiled
        repeats;
      Format.printf "overhead:      %+.2f%%@." overhead_pct
    end;
    match check_overhead with
    | Some bound when overhead_pct > bound ->
      Format.eprintf "profiler overhead %.2f%% exceeds the %.2f%% bound@."
        overhead_pct bound;
      exit 1
    | _ -> ()
  in
  let repeats_arg =
    Arg.(
      value & opt int 3
      & info [ "repeats" ] ~docv:"N"
          ~doc:"Best-of-N wall-clock runs per side (default 3).")
  in
  let check_overhead_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "check-overhead" ] ~docv:"PCT"
          ~doc:
            "Exit non-zero when the profiler's wall-clock overhead vs the \
             obs-off baseline exceeds PCT percent (the CI gate).")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the profile as JSON.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile the hot path of one run: wall-clock time per engine phase \
          (pop/dispatch/grant/flush), per-decision-module callback cost, \
          and allocation (Gc.quick_stat deltas) — plus the profiler's own \
          overhead against an observability-off baseline.")
    Term.(
      const run $ scheduler_arg $ clients_arg $ requests_arg $ replicas_arg
      $ seed_arg $ workload_arg $ latency_arg $ trace_shards_arg
      $ repeats_arg $ check_overhead_arg $ json_flag $ output_arg)

(* ------------------------------- top --------------------------------- *)

let sparkline values =
  let levels = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                  "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                  "\xe2\x96\x87"; "\xe2\x96\x88" |] in
  let peak = List.fold_left Stdlib.max 0.0 values in
  if peak <= 0.0 then String.concat "" (List.map (fun _ -> " ") values)
  else
    String.concat ""
      (List.map
         (fun v ->
           if v <= 0.0 then " "
           else
             let i = int_of_float (v /. peak *. 7.0) in
             levels.(Stdlib.max 0 (Stdlib.min 7 i)))
         values)

let default_top_tracks =
  [ "active.inflight"; "active.replies"; "active.response_ms";
    "engine.pending"; "totem.deliveries"; "totem.wire_batches";
    "shard.replies"; "shard.cross_inflight"; "reconfig.epoch";
    "reconfig.held_backlog" ]

(* Live terminal view of a run: the engine is driven one virtual-time
   window at a time ([Engine.run ~until] leaves the queue intact between
   frames), and each frame renders the recorder's windowed series, the
   queue depth and epoch events.  Stepping the engine in slices executes
   exactly the same events at the same virtual times as one uninterrupted
   run, so the displayed run is the run every other command reproduces. *)
let top_cmd =
  let run scheduler clients requests replicas seed workload latency shards
      frame_ms delay frames no_ansi tracks =
    if frame_ms <= 0.0 then begin
      Format.eprintf "top: --frame-ms must be positive@.";
      exit 2
    end;
    let cls, gen = resolve_workload workload in
    let params =
      { Detmt.Active.default_params with
        scheduler; replicas; net_latency_ms = latency }
    in
    let engine = Detmt.Engine.create () in
    let obs = Detmt.Recorder.create ~width_ms:frame_ms () in
    let submit, replies =
      if shards <= 1 then begin
        let sys = Detmt.Active.create ~obs ~engine ~cls ~params () in
        ( (fun ~client ~client_req ~meth ~args ~on_reply ->
            Detmt.Active.submit sys ~client ~client_req ~meth ~args ~on_reply),
          fun () -> Detmt.Active.replies_received sys )
      end
      else begin
        let sys =
          Detmt.Shard.create ~obs ~engine ~cls
            ~params:{ Detmt.Shard.shards; base = params } ()
        in
        ( (fun ~client ~client_req ~meth ~args ~on_reply ->
            Detmt.Shard.submit sys ~client ~client_req ~meth ~args ~on_reply),
          fun () -> Detmt.Shard.replies_received sys )
      end
    in
    let master = Detmt.Rng.create (Int64.of_int seed) in
    let all =
      List.init clients (fun id ->
          Detmt.Client.create_on ~engine ~submit ~id
            ~rng:(Detmt.Rng.split master) ~gen ~max_requests:requests ())
    in
    List.iter Detmt.Client.start all;
    let expected = clients * requests in
    let ts = Detmt.Recorder.timeseries obs in
    let frame = ref 0 in
    let render () =
      if not no_ansi then print_string "\027[2J\027[H";
      Printf.printf "detmt top — %s on %s  vt=%.1f ms  frame %d\n" scheduler
        workload (Detmt.Engine.now engine) !frame;
      Printf.printf
        "events=%d  queue=%d  replies=%d/%d\n\n"
        (Detmt.Engine.events_executed engine)
        (Detmt.Engine.pending engine) (replies ()) expected;
      let names = Detmt.Timeseries.names ts in
      let shown =
        match tracks with
        | [] -> List.filter (fun n -> List.mem n names) default_top_tracks
        | picks -> List.filter (fun n -> List.mem n names) picks
      in
      List.iter
        (fun name ->
          match Detmt.Timeseries.kind ts name with
          | None -> ()
          | Some kind ->
            let wins = Detmt.Timeseries.windows ts name in
            let values =
              List.map (Detmt.Timeseries.window_value kind) wins
            in
            let tail =
              let n = List.length values in
              if n > 48 then List.filteri (fun i _ -> i >= n - 48) values
              else values
            in
            Printf.printf "%-24s %8g |%s|\n" name
              (Detmt.Timeseries.peak ts name)
              (sparkline tail))
        shown;
      flush stdout
    in
    let rec loop until =
      if
        Detmt.Engine.pending engine > 0 && (frames = 0 || !frame < frames)
      then begin
        Detmt.Engine.run ~until engine;
        incr frame;
        render ();
        if delay > 0.0 then Unix.sleepf delay;
        loop (until +. frame_ms)
      end
    in
    loop frame_ms;
    Printf.printf
      "\nrun %s: %d/%d replies in %.1f virtual ms (%d events, %d frames)\n"
      (if replies () = expected then "complete" else "stopped")
      (replies ()) expected
      (Detmt.Engine.now engine)
      (Detmt.Engine.events_executed engine)
      !frame
  in
  let frame_ms_arg =
    Arg.(
      value & opt float 20.0
      & info [ "frame-ms" ] ~docv:"MS"
          ~doc:
            "Virtual milliseconds per frame (also the series window \
             width; default 20).")
  in
  let delay_arg =
    Arg.(
      value & opt float 0.0
      & info [ "delay" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock pause between frames for a live feel (default 0: \
             render as fast as the run executes).")
  in
  let frames_arg =
    Arg.(
      value & opt int 0
      & info [ "frames" ] ~docv:"N"
          ~doc:"Stop after N frames (0 = run to completion).")
  in
  let no_ansi_flag =
    Arg.(
      value & flag
      & info [ "no-ansi" ]
          ~doc:
            "Print frames sequentially instead of redrawing the screen \
             (for logs and CI).")
  in
  let track_arg =
    Arg.(
      value & opt_all string []
      & info [ "track" ] ~docv:"NAME"
          ~doc:"Series track to display (repeatable; default: a curated \
                set of the tracks present).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live-refreshing terminal view of a run: windowed virtual-time \
          series, event-queue depth, reply progress and epoch events, one \
          frame per virtual-time window.  The sliced run executes exactly \
          the events of an uninterrupted one, so what you watch is the run \
          every other command reproduces.")
    Term.(
      const run $ scheduler_arg $ clients_arg $ requests_arg $ replicas_arg
      $ seed_arg $ workload_arg $ latency_arg $ trace_shards_arg
      $ frame_ms_arg $ delay_arg $ frames_arg $ no_ansi_flag $ track_arg)

(* --------------------------- fingerprint ---------------------------- *)

(* Determinism oracle: run a fixed matrix of workloads x schedulers and
   print one line per combination with the per-replica trace and state
   fingerprints.  Two builds of the scheduler core are behaviourally
   identical exactly when this output is bit-identical — the refactoring
   contract of the two-module scheduler architecture. *)

let replica_fp r =
  Printf.sprintf "%d:%Lx/%Lx" (Detmt.Replica.id r)
    (Detmt.Trace.fingerprint (Detmt.Replica.trace r))
    (Detmt.Replica.state_fingerprint r)

let fingerprint_cmd =
  let run seed workers clients requests shards with_obs schedulers workloads
      =
    let schedulers =
      if schedulers <> [] then schedulers
      else Detmt.Registry.deterministic_decisions
    in
    let workloads =
      if workloads <> [] then workloads else [ "figure1"; "prodcons" ]
    in
    List.iter
      (fun workload ->
        let cls, gen = resolve_workload workload in
        List.iter
          (fun scheduler ->
            (* seq deadlocks on prodcons (section 1); the stalled run still
               has a deterministic prefix, which is what we fingerprint. *)
            let engine = Detmt.Engine.create () in
            (* --obs turns the full telemetry stack on (metrics, windowed
               series, spans, profiler); the output must stay bit-identical
               — the read-only contract, diffable from CI. *)
            let obs =
              if with_obs then
                Detmt.Recorder.create ~profile:(Detmt.Profile.create ()) ()
              else Detmt.Recorder.disabled
            in
            let params =
              { Detmt.Active.default_params with scheduler; workers }
            in
            let replies, fps =
              if shards = 0 then begin
                (* legacy unsharded path — [--shards 1] must print the same
                   lines through {!Detmt.Shard} *)
                let system =
                  Detmt.Active.create ~obs ~engine ~cls ~params ()
                in
                Detmt.Client.run_clients ~engine ~system ~clients
                  ~requests_per_client:requests ~gen
                  ~seed:(Int64.of_int seed) ();
                ( Detmt.Active.replies_received system,
                  List.map replica_fp (Detmt.Active.live_replicas system) )
              end
              else begin
                let system =
                  Detmt.Shard.create ~obs ~engine ~cls
                    ~params:{ Detmt.Shard.shards; base = params } ()
                in
                Detmt.Shard.run_clients system ~clients
                  ~requests_per_client:requests ~gen
                  ~seed:(Int64.of_int seed) ();
                ( Detmt.Shard.replies_received system,
                  List.concat_map
                    (fun g -> List.map replica_fp (Detmt.Active.live_replicas g))
                    (Array.to_list (Detmt.Shard.groups system)) )
              end
            in
            Format.printf "%-13s %-9s replies=%-3d %s@." workload scheduler
              replies (String.concat " " fps))
          schedulers)
      workloads
  in
  let schedulers_arg =
    Cli_args.schedulers_all
      ~doc:
        "Scheduler to fingerprint (repeatable; default: all deterministic \
         ones)."
  in
  let workloads_arg =
    Cli_args.workloads_all
      ~doc:
        "Workload to fingerprint (repeatable; default: figure1 and \
         prodcons)."
  in
  let shards_arg =
    Cli_args.shards ~default:0
      ~doc:
        "Fingerprint the sharded system with this many groups.  0 (the \
         default) is the legacy unsharded path; 1 prints bit-identical \
         output through the sharded one — the refactoring contract."
  in
  let obs_flag =
    Arg.(
      value & flag
      & info [ "obs" ]
          ~doc:
            "Run with the full telemetry stack enabled (metrics, windowed \
             series, spans, hot-path profiler).  The output must be \
             bit-identical to a run without it — the recorder's read-only \
             contract.")
  in
  Cmd.v
    (Cmd.info "fingerprint"
       ~doc:
         "Print the determinism oracle: per-replica trace and state \
          fingerprints for a fixed matrix of workloads and schedulers.  \
          Bit-identical output across two builds proves the scheduler \
          refactoring preserved every grant decision.")
    Term.(
      const run $ seed_arg $ workers_arg $ clients_arg $ requests_arg
      $ shards_arg $ obs_flag $ schedulers_arg $ workloads_arg)

(* ------------------------------ explore ------------------------------ *)

(* Bounded schedule-space model checking.  Two modes:
   - enumeration: split --budget across a scheduler x workload matrix and
     search the delivery-interleaving envelope for divergences; any found
     counterexample is ddmin-shrunk and (with -o) written as a replayable
     witness.  Exit 1 when a divergence survives.
   - --replay FILE: re-execute one checked-in schedule and report its
     verdict; --expect makes the exit code assert it (the CI hooks). *)

let explore_cmd =
  let run replay expect do_shrink budget max_depth max_width skews seed
      clients requests workers elastic schedulers workloads output =
    match replay with
    | Some path ->
      let sched = Detmt.Schedule.load path in
      let verdict, canonical, outcome = Detmt.Explore.replay sched in
      Format.printf "schedule:   %s (%d entries)@." path
        (Detmt.Schedule.size sched);
      Format.printf "scheduler:  %s  workload: %s  seed: %d@."
        sched.Detmt.Schedule.scheduler sched.Detmt.Schedule.workload
        sched.Detmt.Schedule.seed;
      Format.printf "canonical:  replies=%d/%d outstanding=%d order=%Lx@."
        canonical.Detmt.Explore.o_replies canonical.Detmt.Explore.o_expected
        canonical.Detmt.Explore.o_outstanding
        canonical.Detmt.Explore.o_order_fp;
      Format.printf "perturbed:  replies=%d/%d outstanding=%d order=%Lx@."
        outcome.Detmt.Explore.o_replies outcome.Detmt.Explore.o_expected
        outcome.Detmt.Explore.o_outstanding outcome.Detmt.Explore.o_order_fp;
      (match outcome.Detmt.Explore.o_divergence with
      | Some d ->
        Format.printf "divergence: %a@." Detmt.Consistency.pp_divergence d
      | None -> ());
      Format.printf "verdict:    %s@."
        (Detmt.Explore.verdict_to_string verdict);
      let divergent =
        match verdict with Detmt.Explore.Divergent _ -> true | _ -> false
      in
      (match expect with
      | Some "divergent" when not divergent ->
        Format.printf "FAIL: expected a divergence, got none@.";
        exit 1
      | Some "clean" when divergent ->
        Format.printf "FAIL: expected a clean replay, got a divergence@.";
        exit 1
      | Some "divergent" | Some "clean" | None -> ()
      | Some other ->
        Format.printf "unknown --expect value %S (divergent|clean)@." other;
        exit 2)
    | None ->
      let schedulers =
        if schedulers <> [] then schedulers
        else Detmt.Registry.deterministic_decisions
      in
      let workloads =
        if workloads <> [] then workloads
        else if elastic then [ "hotspot" ]
        else [ "figure1"; "prodcons" ]
      in
      let combos =
        List.concat_map
          (fun w -> List.map (fun s -> (s, w)) schedulers)
          workloads
      in
      let per_combo = max 2 (budget / max 1 (List.length combos)) in
      let skews = if skews = [] then Detmt.Explore.default_skews else skews in
      let found = ref [] in
      List.iter
        (fun (scheduler, workload) ->
          let base =
            Detmt.Schedule.make ~seed ~clients ~requests ~workers ~elastic
              ~scheduler ~workload []
          in
          let result =
            Detmt.Explore.explore ~skews ?max_depth ?max_width
              ~budget:per_combo base
          in
          let st = result.Detmt.Explore.stats in
          Format.printf
            "%-13s %-9s explored=%-4d pruned=%-4d order-shifted=%-4d \
             depth<=%d %s@."
            workload scheduler st.Detmt.Explore.explored
            st.Detmt.Explore.pruned st.Detmt.Explore.order_shifted
            st.Detmt.Explore.max_frontier_depth
            (match result.Detmt.Explore.divergent with
            | [] -> "ok"
            | (_, reason) :: _ -> "DIVERGENT: " ^ reason);
          found := !found @ result.Detmt.Explore.divergent)
        combos;
      (match !found with
      | [] ->
        Format.printf
          "certified: no divergence in the explored envelope \
           (%d schedules/combination)@."
          per_combo
      | (sched, reason) :: _ ->
        Format.printf "@.divergence (%s), %d entries before shrinking@."
          reason (Detmt.Schedule.size sched);
        let final =
          if do_shrink then begin
            let minimal, probes, reproduced = Detmt.Explore.shrink sched in
            if reproduced then
              Format.printf "shrunk to %d entries in %d probes@."
                (Detmt.Schedule.size minimal) probes
            else Format.printf "shrink probe did not reproduce; keeping@.";
            minimal
          end
          else sched
        in
        (match output with
        | Some path ->
          Detmt.Schedule.save final path;
          Format.printf "witness written to %s@." path
        | None -> print_string (Detmt.Schedule.to_string final));
        exit 1)
  in
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay a schedule file instead of exploring.")
  in
  let expect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "expect" ] ~docv:"VERDICT"
          ~doc:
            "With $(b,--replay): exit non-zero unless the verdict matches \
             ($(b,divergent) or $(b,clean); order-shifted counts as clean).")
  in
  let shrink_arg =
    Arg.(
      value & opt bool true
      & info [ "shrink" ] ~docv:"BOOL"
          ~doc:"Delta-debug a found divergence to a minimal witness.")
  in
  let budget_arg =
    Arg.(
      value & opt int 2000
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Total number of schedules to run, split evenly across the \
             scheduler x workload matrix.")
  in
  let depth_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-depth" ] ~docv:"N"
          ~doc:"Maximum perturbation entries per schedule (default 2).")
  in
  let width_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-width" ] ~docv:"N"
          ~doc:"Maximum children pushed per search node (default 32).")
  in
  let skew_arg =
    Arg.(
      value & opt_all float []
      & info [ "skew" ] ~docv:"MS"
          ~doc:
            "Delivery-delay magnitude to try (repeatable; default the \
             jitter-scale envelope).  Large values reach failure-detection \
             and recovery races the default envelope deliberately avoids.")
  in
  let explore_clients_arg =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Closed-loop clients per run.")
  in
  let explore_requests_arg =
    Arg.(
      value & opt int 5
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per client.")
  in
  let elastic_flag =
    Arg.(
      value & flag
      & info [ "elastic" ]
          ~doc:
            "Explore the elastic substrate: every schedule runs through a \
             live split/merge cycle (split at 6ms, merge at 20ms), the \
             oracles additionally check that each epoch transition applies \
             and agrees bit-identically across every incarnation, and \
             crash/recovery candidates land inside the reconfiguration \
             window.  Default workload: hotspot.")
  in
  let schedulers_arg =
    Cli_args.schedulers_all
      ~doc:
        "Scheduler to explore (repeatable; default: all deterministic ones)."
  in
  let workloads_arg =
    Cli_args.workloads_all
      ~doc:"Workload to explore (repeatable; default: figure1 and prodcons)."
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Bounded model checking over admissible delivery interleavings: \
          enumerate latency skews, same-instant orderings and batch-flush \
          timings, check every schedule for replica divergence, and shrink \
          any counterexample to a minimal replayable witness.")
    Term.(
      const run $ replay_arg $ expect_arg $ shrink_arg $ budget_arg
      $ depth_arg $ width_arg $ skew_arg $ seed_arg $ explore_clients_arg
      $ explore_requests_arg $ workers_arg $ elastic_flag $ schedulers_arg
      $ workloads_arg $ output_arg)

(* ------------------------------ chaos ------------------------------- *)

let chaos_cmd =
  let all_scenarios = List.map (fun s -> s.Detmt.Chaos.name) Detmt.Chaos.scenarios in
  let scenario_arg =
    let doc =
      "Scenario to run (repeatable): " ^ String.concat ", " all_scenarios
      ^ ".  Default: all."
    in
    Arg.(value & opt_all string [] & info [ "scenario" ] ~docv:"NAME" ~doc)
  in
  let chaos_scheduler_arg =
    Cli_args.schedulers_all
      ~doc:
        ("Scheduler to sweep (repeatable).  Default: "
        ^ String.concat ", " Detmt.Chaos.default_schedulers ^ ".")
  in
  let chaos_shards_arg =
    Cli_args.shards ~default:1
      ~doc:
        "Run the sweep over the sharded system with this many groups; every \
         invariant (exactly-once, divergence, recovery) is checked per \
         group and aggregated."
  in
  let quick_flag =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"Smaller load (2 clients x 3 requests) for CI smoke runs.")
  in
  let forensics_flag =
    Arg.(value & flag
         & info [ "forensics" ]
             ~doc:
               "On a divergence, replay the failing combination with the \
                flight recorder on (determinism makes the replay \
                bit-identical) and dump the scheduler decision audit window \
                around the first divergent checkpoint.")
  in
  let forensics ~seed ~clients ~requests_per_client ~cls ~gen
      (o : Detmt.Chaos.outcome) (d : Detmt.Consistency.divergence) =
    match Detmt.Chaos.find_scenario o.Detmt.Chaos.o_scenario with
    | None -> ()
    | Some scenario ->
      let obs = Detmt.Recorder.create () in
      ignore
        (Detmt.Chaos.run ~seed ~shards:o.Detmt.Chaos.o_shards ~clients
           ~requests_per_client ~obs ~scenario
           ~scheduler:o.Detmt.Chaos.o_scheduler ~cls ~gen ());
      Format.printf
        "@.forensics: %s/%s first divergence at checkpoint seq %d \
         (replica %d hash %Lx vs replica %d hash %Lx)@."
        o.Detmt.Chaos.o_scenario o.Detmt.Chaos.o_scheduler d.seq d.replica_a
        d.hash_a d.replica_b d.hash_b;
      List.iter
        (fun (f, a, b) ->
          Format.printf "  field %-12s %d vs %d@." f a b)
        d.differing_fields;
      (match
         Detmt.Recorder.checkpoint_time obs ~replica:d.replica_a ~seq:d.seq
       with
      | None ->
        Format.printf
          "  (no checkpoint time recorded for replica %d seq %d)@."
          d.replica_a d.seq
      | Some at ->
        let margin = 5.0 in
        let window = Detmt.Recorder.audit_window obs ~around:at ~margin in
        Format.printf
          "  audit window %.2f ms around t=%.2f ms (%d of %d decisions):@."
          margin at (List.length window)
          (Detmt.Recorder.audit_count obs);
        List.iter
          (fun e -> Format.printf "  %a@." Detmt.Audit.pp_entry e)
          window)
  in
  let run csv seed shards workers scenario_names scheduler_names quick
      with_forensics workload =
    let cls, gen = resolve_workload workload in
    let scenario_names =
      if scenario_names = [] then all_scenarios else scenario_names
    in
    let schedulers =
      if scheduler_names = [] then Detmt.Chaos.default_schedulers
      else scheduler_names
    in
    let clients, requests_per_client = if quick then (2, 3) else (4, 5) in
    let seed = Int64.of_int seed in
    let outcomes =
      Detmt.Chaos.sweep ~seed ~shards ~workers ~schedulers ~scenario_names
        ~clients ~requests_per_client ~cls ~gen ()
    in
    emit csv (Detmt.Chaos.table outcomes);
    if with_forensics then
      List.iter
        (fun o ->
          Option.iter
            (forensics ~seed ~clients ~requests_per_client ~cls ~gen o)
            o.Detmt.Chaos.o_divergence)
        outcomes;
    let failed = List.filter (fun o -> not (Detmt.Chaos.ok o)) outcomes in
    if failed <> [] then begin
      Format.eprintf "%d of %d combinations violated an invariant@."
        (List.length failed) (List.length outcomes);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Sweep fault scenarios (lossy links, duplicates, partitions, \
          crash+recovery) across the deterministic schedulers and check the \
          robustness invariants; exits 1 on any violation.")
    Term.(
      const run $ csv_flag $ seed_arg $ chaos_shards_arg $ workers_arg
      $ scenario_arg $ chaos_scheduler_arg $ quick_flag $ forensics_flag
      $ workload_arg)

(* ------------------------------ shard ------------------------------- *)

let cross_arg =
  Arg.(
    value & opt float 0.1
    & info [ "cross" ] ~docv:"RATIO"
        ~doc:
          "Fraction of requests whose lock closure spans two objects (the \
           cross-shard two-phase path when they land on different shards).")

let batch_arg =
  Arg.(
    value & opt int 1
    & info [ "batch" ] ~docv:"K"
        ~doc:
          "Coalesce up to K ordered requests per wire batch inside each \
           group (1 = batching off).")

let batch_delay_arg =
  Arg.(
    value & opt float 0.2
    & info [ "batch-delay" ] ~docv:"MS"
        ~doc:"Flush an under-filled batch after this many virtual ms.")

let shard_cmd =
  let run shards clients requests seed scheduler workers cross batch
      batch_delay =
    let workload =
      { Detmt.Sharded.default with Detmt.Sharded.cross_ratio = cross }
    in
    let batching =
      if batch > 1 then
        Some { Detmt.Totem.max_batch = batch; delay_ms = batch_delay }
      else None
    in
    let row =
      Detmt.Experiment.run_shard ~seed:(Int64.of_int seed) ~scheduler
        ~workers ~requests_per_client:requests ?batching ~workload ~shards
        ~clients ()
    in
    let open Detmt.Experiment in
    Format.printf "shards:       %d (%s in every group)@." shards scheduler;
    Format.printf "clients:      %d x %d requests, %.0f%% transfers@." clients
      requests (100.0 *. cross);
    Format.printf "replies:      %d/%d@." row.s_replies row.s_expected;
    Format.printf "routing:      %d fast-path, %d cross-shard@."
      row.s_fast_path row.s_cross_shard;
    Format.printf "mean:         %.2f ms@." row.s_mean_response_ms;
    Format.printf "p95:          %.2f ms@." row.s_p95_response_ms;
    Format.printf "throughput:   %.1f req/s@." row.s_throughput_per_s;
    Format.printf "makespan:     %.1f virtual ms@." row.s_duration_ms;
    Format.printf "broadcasts:   %d (%d wire batches)@." row.s_broadcasts
      row.s_wire_batches;
    Format.printf "consistent:   %b@." row.s_consistent;
    Format.printf "fingerprint:  %Lx@." row.s_fingerprint
  in
  let shards_arg =
    Cli_args.shards ~default:2
      ~doc:"Number of independent replica groups the object space is split \
            across."
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Run the sharded workload once across N replica groups and report \
          routing, latency, throughput and the determinism fingerprint.")
    Term.(
      const run $ shards_arg $ clients_arg $ requests_arg $ seed_arg
      $ scheduler_arg $ workers_arg $ cross_arg $ batch_arg
      $ batch_delay_arg)

(* ------------------------------ reshard ------------------------------ *)

(* One elastic run, end to end: split / (optional hot-swap) / merge at
   fixed virtual times — or the autoscaling controller — over the hotspot
   workload, then print the transition log and check every elastic
   invariant.  Exit 1 on any violation: the CI smoke hook. *)

let reshard_cmd =
  let run clients requests seed scheduler autoscale swap_to =
    let workload = Detmt.Experiment.elastic_bench_workload in
    let cls = Detmt.Hotspot.cls workload in
    let gen = Detmt.Hotspot.gen workload in
    let engine = Detmt.Engine.create () in
    let system =
      Detmt.Reconfig.create ~engine ~cls
        ~params:
          { Detmt.Reconfig.default_params with
            Detmt.Reconfig.base =
              { Detmt.Active.default_params with scheduler } }
        ()
    in
    if autoscale then
      Detmt.Reconfig.set_autoscale system Detmt.Experiment.elastic_bench_policy
    else begin
      Detmt.Reconfig.request_at system ~at:6.0 (Detmt.Reconfig.Split 0);
      (match swap_to with
      | Some s ->
        Detmt.Reconfig.request_at system ~at:12.0
          (Detmt.Reconfig.Hot_swap { group = 0; scheduler = s })
      | None -> ());
      Detmt.Reconfig.request_at system ~at:20.0
        (Detmt.Reconfig.Merge { from_g = 1; into = 0 })
    end;
    ignore
      (Detmt.Reconfig.run_clients_stats system ~clients
         ~requests_per_client:requests ~gen ~seed:(Int64.of_int seed) ());
    let expected = clients * requests in
    let replies = Detmt.Reconfig.replies_received system in
    Format.printf "mode:         %s (%s)@."
      (if autoscale then "autoscale" else "split/merge cycle")
      scheduler;
    Format.printf "clients:      %d x %d requests@." clients requests;
    Format.printf "replies:      %d/%d (%d held behind barriers)@." replies
      expected
      (Detmt.Reconfig.held_requests system);
    List.iter
      (fun tr ->
        Format.printf
          "transition:   epoch %d at %.1fms (barrier seq %d) %s -> %d \
           groups@."
          tr.Detmt.Reconfig.tr_epoch tr.Detmt.Reconfig.tr_at_ms
          tr.Detmt.Reconfig.tr_barrier_seq
          (Detmt.Reconfig.command_to_string tr.Detmt.Reconfig.tr_command)
          tr.Detmt.Reconfig.tr_groups)
      (Detmt.Reconfig.transitions system);
    let states = Detmt.Reconfig.states_agree system in
    let epochs = Detmt.Reconfig.epochs_agree system in
    let dups = Detmt.Reconfig.duplicate_client_replies system in
    Format.printf "epoch:        %d (%d live groups)@."
      (Detmt.Reconfig.epoch system)
      (Detmt.Reconfig.group_count system);
    Format.printf "states agree: %b   epochs agree: %b   duplicates: %d@."
      states epochs dups;
    Format.printf "fingerprint:  %Lx@." (Detmt.Reconfig.fingerprint system);
    let expected_transitions = if autoscale then 1 else 2 in
    if
      replies <> expected || dups <> 0 || (not states) || (not epochs)
      || Detmt.Reconfig.epoch system < expected_transitions
    then begin
      Format.printf "FAIL: an elastic invariant was violated@.";
      exit 1
    end
  in
  let reshard_clients_arg =
    Arg.(
      value & opt int 8
      & info [ "clients" ] ~docv:"N" ~doc:"Closed-loop clients.")
  in
  let reshard_requests_arg =
    Arg.(
      value & opt int 6
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per client.")
  in
  let autoscale_flag =
    Arg.(
      value & flag
      & info [ "autoscale" ]
          ~doc:
            "Hand control to the deterministic autoscaling controller \
             instead of the fixed split/merge cycle.")
  in
  let swap_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "swap-to" ] ~docv:"SCHEDULER"
          ~doc:
            "Also hot-swap group 0 to this scheduler at 12ms, between the \
             split and the merge (cycle mode only).")
  in
  Cmd.v
    (Cmd.info "reshard"
       ~doc:
         "Run one live reconfiguration cycle — split, optional scheduler \
          hot-swap, merge (or $(b,--autoscale)) — over the hotspot \
          workload, print the transition log, and verify every elastic \
          invariant: exactly-once replies, state and epoch agreement \
          across all incarnations.  Non-zero exit on any violation.")
    Term.(
      const run $ reshard_clients_arg $ reshard_requests_arg $ seed_arg
      $ scheduler_arg $ autoscale_flag $ swap_arg)

(* ------------------------------ bench ------------------------------- *)

let bench_cmd =
  let run name seed clients shards json csv out =
    let module E = Detmt.Experiment in
    let specs =
      match name with
      | "list" ->
        List.iter
          (fun s -> Format.printf "%-13s %s@." s.E.name s.E.heading)
          E.all;
        exit 0
      | "all" -> E.all
      | name -> (
        match E.find name with
        | Some s -> [ s ]
        | None ->
          Format.eprintf "unknown experiment %S; try 'list'@." name;
          exit 2)
    in
    let o = { E.seed; clients; shards } in
    List.iter
      (fun s ->
        match E.unsupported s o with
        | [] -> ()
        | flags ->
          Format.eprintf "bench %s: no axis for %s@." s.E.name
            (String.concat ", " flags);
          exit 2)
      specs;
    if out <> None && List.length specs > 1 then begin
      Format.eprintf "bench: -o needs a single experiment@.";
      exit 2
    end;
    List.iter
      (fun s ->
        Format.printf
          "@.==[ %s ]=====================================================@.@."
          s.E.heading;
        let r = s.E.run o in
        List.iter
          (function
            | E.Table t -> emit csv t
            | E.Text text -> Format.printf "%s%!" text)
          r.E.blocks;
        (match r.E.json with
        | Some payload when json ->
          let path =
            Option.value out ~default:(Printf.sprintf "BENCH_%s.json" s.E.name)
          in
          write_out (Some path)
            (Detmt.Json.to_string (Lazy.force payload) ^ "\n")
        | Some _ | None -> ());
        if s.E.expected <> "" then Format.printf "@.%s@." s.E.expected)
      specs
  in
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "Experiment to run, $(b,all), or $(b,list) to print the names.")
  in
  let override name ~docv ~doc =
    Arg.(value & opt (some int) None & info [ name ] ~docv ~doc)
  in
  let seed_arg =
    override "seed" ~docv:"SEED"
      ~doc:"Master random seed (experiments with a seed axis)."
  in
  let clients_arg =
    override "clients" ~docv:"N"
      ~doc:
        "Run the grid at this one client count (experiments with a clients \
         axis)."
  in
  let shards_arg =
    override "shards" ~docv:"N"
      ~doc:
        "Highest shard count to sweep: the powers of two up to N, plus N \
         (experiments with a shards axis)."
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Also write each experiment's payload to BENCH_<experiment>.json \
             (or the $(b,-o) path).")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run an experiment — a paper figure or a derived grid — and print \
          its heading, tables and expected shape; with $(b,--json), write \
          the machine-readable payload next to it.  An override the \
          experiment has no axis for exits 2.")
    Term.(
      const run $ name_arg $ seed_arg $ clients_arg $ shards_arg $ json_flag
      $ csv_flag $ output_arg)

let default =
  Term.(ret (const (fun () -> `Help (`Pager, None)) $ const ()))

let () =
  let info =
    Cmd.info "detmt-cli" ~version:"1.0.0"
      ~doc:
        "Deterministic multithreading strategies for replicated objects — \
         experiment driver."
  in
  let cmds =
    [ run_cmd;
      trace_cmd; metrics_cmd; profile_cmd; top_cmd; chaos_cmd;
      fingerprint_cmd; explore_cmd;
      shard_cmd; reshard_cmd;
      bench_cmd; timeline_cmd; analyse_cmd;
      schedulers_cmd; sched_cmd; transform_cmd ]
  in
  exit (Cmd.eval (Cmd.group ~default info cmds))
