(** Live progress heartbeat for [extractocol --all --progress].

    A pure state machine over the runner's three observer hooks
    ({!Runner.run}'s [on_journal], [on_result], [on_state]) and an
    injectable clock; it owns no terminal — rendered chunks go through
    the [emit] callback, so the CLI points it at stderr and tests
    capture strings under a fake clock.

    Two render modes:
    - [Tty]: one rewriting status line (carriage return +
      erase-to-end-of-line), updated on every event;
    - [Lines]: self-contained [progress: ...] lines, rate-limited to one
      per [min_interval_s] so a fast corpus doesn't flood a CI log.

    The line shows apps done/total, ok/degraded/quarantined/cached
    counts, the pool's busy/idle/queued shape (once a pool has reported
    state — sequential runs omit it) and an ETA.  The ETA averages the
    per-app wall time of apps seen end to end — the same
    started→finished pairing the journal records, timed by the
    records' write times — spread over the remaining apps and the
    currently busy workers; it reads [--] until the first app
    finishes. *)

type mode = Tty | Lines

type t

val create :
  ?clock:Extr_telemetry.Clock.t ->
  ?min_interval_s:float ->
  mode:mode ->
  total:int ->
  emit:(string -> unit) ->
  unit ->
  t
(** [create ~mode ~total ~emit ()] — [total] is the corpus size;
    [min_interval_s] (default 2.0) only affects [Lines] mode. *)

val on_journal : t -> at:float -> Extr_resilience.Journal.event -> unit
(** Feed a lifecycle event written at [at] (pair with {!Runner.run}'s
    [on_journal]).  The ETA times apps by [at], not by the progress
    clock, because a pooled run publishes records in commits, later
    than it writes them. *)

val on_result : t -> Runner.app_result -> unit
(** Feed a published result (pair with [on_result]). *)

val on_state : t -> busy:int -> idle:int -> pending:int -> unit
(** Feed the pool's scheduling state (pair with [on_state]). *)

val finish : t -> unit
(** Final render: clears the status line ([Tty]) or force-emits the last
    state ([Lines]) so the run always ends on a complete picture. *)
