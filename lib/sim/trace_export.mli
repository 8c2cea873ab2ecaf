(** Exporters for the observability layer.

    A {!source} bundles one traced machine's event history, counters and
    latency histograms under a display label ("UVM", "BSD VM").  The
    exporters consume a list of sources so one run of an experiment —
    which boots both VM systems, possibly several times — lands in a
    single artifact.  Sources sharing a label (several boots in a sweep)
    are folded into one logical system by the aggregating exporters.

    JSON is emitted by hand: the toolchain deliberately has no JSON
    dependency, and the fixed schemas here do not justify one. *)

type source = {
  mutable label : string;
  hist : Hist.t;
  stats : Stats.t;
  latencies : Histogram.set;
  lifecycle : Lifecycle.t;  (** ledger-derived efficacy analytics *)
  spans : Span.t;  (** causal span collector *)
  series : Timeseries.t;  (** vmstat-style periodic samples *)
  locks : Lockstat.t option;  (** the machine's lock registry *)
  mutable sync : unit -> unit;
      (** refresh the gauge fields of [stats] from the live machine;
          installed by the machine, called before any counter export *)
}

val json_string : Buffer.t -> string -> unit
(** Append a JSON string literal, escaping as required. *)

val json_fixed : Buffer.t -> decimals:int -> float -> unit
(** [json_fixed buf ~decimals v] appends exactly what
    [Printf.sprintf "%.*f" decimals v] returns, for [decimals] in 0..3,
    without going through [Printf] for magnitudes below 2{^51}. *)

val json_float : Buffer.t -> float -> unit
(** Append a finite float as [%.3f] writes it; non-finite values become
    [0]. *)

val chrome_json : Buffer.t -> source list -> unit
(** Chrome trace-event JSON, loadable in Perfetto or [chrome://tracing].
    Each source becomes a process, each Hist subsystem a thread; timed
    events are complete ("X") events, instants are "i".  Causal spans
    get their own per-subsystem tracks (tids from 100, named
    ["span:<subsys>"]) with flow arrows ("s"/"f" pairs keyed by the
    child's span id) linking each child span to its parent. *)

val spans_json : Buffer.t -> source list -> unit
(** Causal span trees (schema ["uvm-sim-spans/1"]): per source (not
    label-folded — span ids are collector-local), the finished spans
    oldest first, the still-open span stack, and ring accounting. *)

val lockstat_systems : Buffer.t -> ?cpus:int -> ?seed:int -> source list -> unit
(** The ["systems"] array of the lockstat schema: per label (sweeps
    merged via {!Lockstat.merge}), every class's acquire counts, hold
    histograms (total/read/write), per-subsystem attribution, the
    would-be-contention projection at [cpus] simulated CPUs, the
    observed lock-order edges, any order cycles, and the locks held at
    export time. *)

val lockstat_json : Buffer.t -> ?cpus:int -> ?seed:int -> source list -> unit
(** The full lock-observatory artifact
    (schema ["uvm-sim-lockstat/1"]). *)

val metrics_json : Buffer.t -> source list -> unit
(** Time-series telemetry (schema ["uvm-sim-metrics/1"]): per source,
    the sampler's column names, retained samples and watchdog
    warnings. *)

val snapshot_json : Buffer.t -> source list -> unit
(** Counters + histogram summaries, machine-readable
    (schema ["uvm-sim-stats/1"]). *)

val pp_dump : Format.formatter -> source list -> unit
(** Flat human-readable event listing. *)

val print_stats : source list -> unit
(** The per-label counter/percentile tables behind the CLI's [--stats]
    flag, on stdout. *)

val report_json : Buffer.t -> source list -> unit
(** The comparative efficacy report (schema ["uvm-sim-report/1"]):
    per aggregated label, fault-ahead hit/waste per madvise mode,
    fault-in kind counts, pageout cluster size/contiguity and
    reassignment-distance distributions, residency and inter-fault
    histograms, the map-entry fragmentation census, and the count of
    illegal ledger transitions. *)

val print_report : source list -> unit
(** Human rendering of {!report_json}: side-by-side tables with one
    column per aggregated label ("UVM" vs "BSD VM"), on stdout. *)
