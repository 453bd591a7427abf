(* Shared command-line vocabulary for every detmt-cli subcommand.

   One spelling per concept — [--scheduler], [--workload], [--seed],
   [--shards], [-o]/[--output] — so flags read the same on [run], [bench],
   [chaos], [trace], [fingerprint] and [shard]. *)

open Cmdliner

let scheduler_names =
  List.map (fun s -> s.Detmt.Registry.name) Detmt.Registry.all

let scheduler =
  Arg.(
    value & opt string "mat"
    & info [ "scheduler" ] ~docv:"NAME"
        ~doc:("Scheduler to use: " ^ String.concat ", " scheduler_names ^ "."))

let schedulers_all ~doc =
  Arg.(value & opt_all string [] & info [ "scheduler" ] ~docv:"NAME" ~doc)

let workload_doc =
  "Workload: figure1 (the paper's benchmark), compute-heavy, disjoint, \
   tail, prodcons, sharded (partitionable object space)."

let workload =
  Arg.(
    value & opt string "figure1"
    & info [ "workload" ] ~docv:"NAME" ~doc:workload_doc)

let workloads_all ~doc =
  Arg.(value & opt_all string [] & info [ "workload" ] ~docv:"NAME" ~doc)

let clients =
  Arg.(
    value & opt int 8
    & info [ "clients" ] ~docv:"N" ~doc:"Number of closed-loop clients.")

let requests =
  Arg.(
    value & opt int 10 & info [ "requests" ] ~docv:"N" ~doc:"Requests per client.")

let replicas =
  Arg.(
    value & opt int 3
    & info [ "replicas" ] ~docv:"N" ~doc:"Replica-group size (per shard).")

let seed =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Master random seed for the client decision streams.")

let workers =
  Arg.(
    value & opt int 1
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Simulated worker-pool width for the parallel scheduler family \
           (cgs, pcgs, wss, cgs+ws, adaptive); serial schedulers require \
           the default 1.")

let shards ~default ~doc = Arg.(value & opt int default & info [ "shards" ] ~docv:"N" ~doc)

let latency =
  Arg.(
    value & opt float 0.5
    & info [ "latency" ] ~docv:"MS"
        ~doc:"One-way network latency between replicas, in virtual ms.")

let output =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"PATH"
        ~doc:"Write the export to a file instead of stdout.")

let csv =
  Arg.(
    value & flag
    & info [ "csv" ] ~doc:"Emit the table as CSV instead of aligned text.")

let file =
  Arg.(
    value
    & opt (some file) None
    & info [ "f"; "file" ] ~docv:"PATH"
        ~doc:
          "Load the replicated class from a DML source file instead of a \
           built-in workload (see examples/counter.dml).")
