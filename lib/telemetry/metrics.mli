(** Global registry of named counters, gauges and latency histograms with
    label support (e.g. [slicer.slice_stmts{kind="request"}]).

    Instruments register handles once at module initialization; the hot
    path ([incr] / [set] / [observe]) checks a single [enabled] flag and
    is a no-op when telemetry is off, so disabled instrumentation adds no
    observable overhead. *)

type t
(** A metrics registry. *)

type labels = (string * string) list

val create : ?enabled:bool -> unit -> t
(** A fresh registry (default: disabled). *)

val default : t
(** The process-wide registry all built-in instrumentation uses. *)

val set_enabled : t -> bool -> unit
val is_enabled : t -> bool

val reset : t -> unit
(** Drop every recorded series (registered metric names survive). *)

(** {1 Instruments} *)

type counter
type gauge
type histogram

val counter : ?registry:t -> ?help:string -> string -> counter
(** Register (or look up) a monotone counter by name. *)

val incr : ?labels:labels -> ?by:int -> counter -> unit

val gauge : ?registry:t -> ?help:string -> string -> gauge
(** Register (or look up) a last-value-wins gauge. *)

val set : ?labels:labels -> gauge -> float -> unit

val histogram : ?registry:t -> ?help:string -> ?buckets:float list -> string -> histogram
(** Register (or look up) a histogram with the given upper bucket bounds
    (default: a 1–100k logarithmic ladder suitable for sizes and for
    latencies expressed in microseconds). *)

val observe : ?labels:labels -> histogram -> float -> unit

(** {1 Snapshots} *)

type sample = {
  sa_name : string;
  sa_kind : [ `Counter | `Gauge | `Histogram ];
  sa_help : string;
  sa_labels : labels;
  sa_count : int;  (** counter value / number of observations *)
  sa_sum : float;  (** gauge value / sum of observations *)
  sa_buckets : (float * int) list;  (** cumulative; histograms only *)
}

val snapshot : t -> sample list
(** Every recorded series, sorted by name then labels. *)

val merge_samples : t -> sample list -> unit
(** [merge_samples t samples] folds a snapshot taken in another registry
    — typically a forked worker process reporting back over a pipe —
    into [t].  Counter counts and sums add; gauges merge by {e labelled
    max} (commutative, so the merged value does not depend on worker
    arrival order — gauges that must stay distinct carry a
    distinguishing label); histogram buckets are decumulated from the
    snapshot's cumulative counts and added slot-wise.  Unknown metrics
    are registered on the fly.  Merging bypasses {!is_enabled}: the
    samples were already recorded under the worker's own flag. *)

val percentile : sample -> float -> float option
(** [percentile s q] estimates the [q]-th percentile (0–100) of a
    histogram sample from its cumulative bucket counts, interpolating
    linearly inside the bucket the rank falls in (the
    [histogram_quantile] estimate).  Ranks landing in the overflow
    bucket report the largest finite bound.  [None] for non-histograms
    and empty series. *)

val find : ?labels:labels -> t -> string -> sample option
(** The series with exactly the given name and labels, if recorded. *)

val value : ?labels:labels -> t -> string -> float
(** Convenience: the counter value / gauge value / observation sum of a
    series, or 0 if absent. *)
