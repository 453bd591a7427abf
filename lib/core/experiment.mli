(** One-call experiment runners and the experiment table.

    Each paper artefact (figures 1–4, the section 3.5 comparison claims, and
    the section 5 overhead question) and each derived grid has a runner here
    that builds the whole simulated system, runs it, and returns printable
    tables — the same rows/series the paper reports.  {!all} lists every
    experiment once, with its heading, expected-shape note and BENCH JSON
    payload; [detmt-cli bench] prints and writes them. *)

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
  cpu_busy_ms : float;  (** replica 0 *)
  duration_ms : float;  (** virtual makespan *)
}

val run_workload :
  ?seed:int64 ->
  ?params:Detmt_replication.Active.params ->
  ?requests_per_client:int ->
  ?obs:Detmt_obs.Recorder.t ->
  scheduler:string ->
  clients:int ->
  cls:Detmt_lang.Class_def.t ->
  gen:Detmt_replication.Client.request_gen ->
  unit ->
  run_result
(** Run one configuration to completion and summarise it.  [obs] (default
    disabled) is the flight recorder threaded through the whole system; it
    never changes the run — reply tables and trace fingerprints are
    bit-identical with recording on or off.
    @raise Failure if the simulation deadlocks. *)

val figure1 :
  ?clients_list:int list ->
  ?schedulers:string list ->
  ?requests_per_client:int ->
  ?workload:Detmt_workload.Figure1.params ->
  unit ->
  Detmt_stats.Table.t * Detmt_stats.Series.t list
(** E1: mean response time vs number of clients, 3 replicas. *)

val figure1b :
  ?clients_list:int list -> ?schedulers:string list -> unit ->
  Detmt_stats.Table.t
(** E1b ablation: the compute-heavy variant — a lock-free front computation
    per request, where MAT's concurrent secondaries beat SAT clearly. *)

val figure2 :
  ?clients_list:int list -> unit -> Detmt_stats.Table.t
(** E2: the last-lock hand-off — MAT vs MAT+LL vs PMAT on the tail-compute
    workload. *)

val figure3 :
  ?clients_list:int list -> unit -> Detmt_stats.Table.t
(** E3: disjoint mutex sets — pessimistic MAT vs predicted MAT. *)

val timeline :
  ?scheduler:string ->
  ?workload:[ `Tail | `Disjoint ] ->
  ?clients:int ->
  ?requests:int ->
  unit ->
  Detmt_sim.Timeline.t
(** Per-thread schedule of a small run — the visual form of Figures 2/3;
    render with {!Detmt_sim.Timeline.render}. *)

val figure4 : unit -> string
(** E4: the code transformation of the paper's [foo] example, rendered
    before and after. *)

val wan :
  ?latencies_ms:float list -> ?clients:int -> unit -> Detmt_stats.Table.t
(** E5: LSA vs MAT under growing network latency. *)

val failover : ?schedulers:string list -> unit -> Detmt_stats.Table.t
(** E6: leader-failure take-over time. *)

val pds_batch :
  ?batches:int list -> ?clients_list:int list -> unit -> Detmt_stats.Table.t
(** E7: PDS batch-size sensitivity and dummy-message overhead. *)

val overhead :
  ?bookkeeping_ms:float list -> ?clients:int -> unit -> Detmt_stats.Table.t
(** E8: prediction gain vs bookkeeping cost — the section 5 crossover. *)

val saturation :
  ?rates:float list ->
  ?schedulers:string list ->
  ?requests:int ->
  unit ->
  Detmt_stats.Table.t
(** E13: open-loop (Poisson) load sweep — where each scheduler saturates. *)

val model :
  ?clients_list:int list -> ?schedulers:string list -> unit ->
  Detmt_stats.Table.t
(** E11: the section-5 analytic model against the simulator, per scheduler
    and client count. *)

val interference : unit -> Detmt_analysis.Interference.report
(** E12: the section-5 interference analysis on a four-method example. *)

val prodcons :
  ?schedulers:string list -> ?clients:int -> unit -> Detmt_stats.Table.t
(** E9: condition-variable workload across schedulers. *)

val determinism :
  ?schedulers:string list -> unit -> Detmt_stats.Table.t
(** E10: replica-consistency matrix; the freefall baseline must diverge. *)

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
  s_fingerprint : int64;  (** {!Detmt_replication.Shard.fingerprint} *)
  s_duration_ms : float;
  s_wall_ms : float;  (** host wall clock around the run *)
  s_minor_words : float;  (** GC words allocated by the run *)
  s_major_words : float;
  s_series_points : int;  (** windowed-series samples recorded *)
  s_peak_pending : float;  (** peak engine queue depth observed *)
}

val run_shard :
  ?seed:int64 ->
  ?scheduler:string ->
  ?workers:int ->
  ?requests_per_client:int ->
  ?batching:Detmt_gcs.Totem.batching ->
  ?obs:Detmt_obs.Recorder.t ->
  ?workload:Detmt_workload.Sharded.params ->
  shards:int ->
  clients:int ->
  unit ->
  shard_row
(** One sharded run of the {!Detmt_workload.Sharded} workload to
    completion.  [workers] (default 1) is the per-group simulated pool
    width, legal only for parallel schedulers. *)

(** {2 Workload settings shared with the benchmark} *)

val elastic_bench_policy : Detmt_replication.Reconfig.policy
(** The E16 grid's controller setting: 0.5 ms ticks, split above queue
    depth 4, never merge, up to 16 live groups — twice the static grid's
    ceiling. *)

val elastic_bench_workload : Detmt_workload.Hotspot.params
(** {!Detmt_workload.Hotspot.default} with the hotspot drifting every 8
    requests, so a 16-request run sees the zone move twice. *)

val workspace_workload : Detmt_workload.Sharded.params
(** The E20a misprediction setting: {!Detmt_workload.Sharded.default} with
    no transfers and [opaque_ratio = 0.25] — a quarter of the requests
    synchronise through a local the prediction analysis cannot resolve,
    so their conflict class is [Top]. *)

(** {2 BENCH JSON} *)

val median_by_column : Detmt_stats.Table.t -> (string * float) list
(** Median of each column's numeric cells, in column order.  The first
    (label) column is excluded, non-numeric cells are skipped, a column
    with no numeric cell is dropped, and an even count takes the upper
    median.  A table's BENCH JSON is its [title], [columns], [rows] (cells
    as strings) and these medians as [median_by_column]. *)

(** {2 The experiment table} *)

type overrides = {
  seed : int option;
  clients : int option;
  shards : int option;
}
(** The grid axes [detmt-cli bench] exposes; [None] keeps the experiment's
    default. *)

type axis = Seed | Clients | Shards

type block =
  | Table of Detmt_stats.Table.t
  | Text of string  (** printed verbatim *)

type output = {
  blocks : block list;  (** in print order *)
  json : Detmt_obs.Json.t Lazy.t option;
      (** the BENCH_<name>.json payload, led by a [schema_version] field
          (3); forced only when asked for *)
}

type spec = {
  name : string;
  heading : string;
  expected : string;  (** the expected-shape note; may be empty *)
  axes : axis list;  (** the overrides [run] honours *)
  run : overrides -> output;
}

val all : spec list
(** Every experiment, once: fig1 (with the E19/E20 riders and the
    per-scheduler metrics), fig1b, fig2, fig3, fig4, wan, failover, pds,
    overhead, prodcons, determinism, saturation, model, shard (E14),
    elastic (E16), workspace (E20), interference (E12) and engine (E18). *)

val find : string -> spec option

val unsupported : spec -> overrides -> string list
(** The flags ([--seed], [--clients], [--shards]) of the overrides that
    are set but outside [spec.axes]; [detmt-cli bench] rejects a non-empty
    list. *)
