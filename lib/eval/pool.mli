(** Fork-based worker pool for corpus execution.

    The paper's evaluation axis is per-app independence: every corpus
    entry is analyzed in isolation behind its own fault barrier, so the
    natural parallelism is one app per worker process.  [run] forks
    [jobs] workers, dispatches task indices over pipes, and streams
    each worker's events and result back to the coordinator.

    Division of labor:
    - the {b coordinator} (calling process) owns every shared mutable
      resource — the journal, the metrics registry, the report — and is
      the only process that appends to them;
    - {b workers} are forked copies that run [worker] on one task at a
      time and report back over their result pipe: zero or more [emit]
      events (journaled by the coordinator in arrival order) followed by
      the task's result.  A worker gets its next task as soon as its
      result arrives, before the coordinator commits anything.
      Anything a worker must hand back about a task (the runner's
      telemetry delta, for one) rides in that result; nothing runs in
      a worker between tasks, and it sends nothing when told to quit.

    Fault containment mirrors the in-process barrier: a worker that dies
    (signal, [_exit], injected kill) costs only its in-flight task — the
    coordinator synthesizes a result for it via [on_death] and respawns
    a replacement while other workers keep running.  Two control paths
    cross the pool the same way they cross
    {!Extr_resilience.Resilience.Barrier.protect}: a worker exiting with
    code 99 (it raised [Barrier.Killed]: an injected kill at a phase
    site) makes the coordinator kill the remaining workers and re-raise
    [Barrier.Killed], and
    [Barrier.Interrupted] raised in the coordinator (SIGINT/SIGTERM)
    terminates the workers and returns [Interrupted].

    The coordinator doubles as the scheduler's own instrument panel: it
    records dispatch latency, per-worker busy/idle time, queue depth,
    spawn/death/respawn counts into {!Extr_telemetry.Metrics.default}
    (series under [pool.*]), timed by the injectable [clock] so tests
    can pin them. *)

type outcome = Completed | Interrupted

type death_cause =
  | Died of string
      (** the classic worker death: signal, [_exit], lost pipe —
          [string] is the reaped wait status, human-readable *)
  | Hung of { hd_phase : string; hd_silent_s : float }
      (** the watchdog SIGKILLed the worker after [hd_silent_s] seconds
          of silence, with [hd_phase] the pipeline phase of its last
          heartbeat — and the task had already spent its one requeue *)

val default_jobs : unit -> int
(** The host's recommended parallelism
    ([Domain.recommended_domain_count]), at least 1.  The CLI's
    [--jobs 0] resolves to this. *)

val run :
  ?deps:(int -> int list) ->
  ?clock:Extr_telemetry.Clock.t ->
  ?on_state:(busy:int -> idle:int -> pending:int -> unit) ->
  ?hang_timeout:float ->
  ?on_hang:(task:int -> phase:string -> unit) ->
  ?commit:(unit -> unit) ->
  jobs:int ->
  tasks:int list ->
  worker:(emit:('e -> unit) -> beat:(phase:string -> unit) -> int -> 'r) ->
  on_event:('e -> unit) ->
  on_death:(task:int -> cause:death_cause -> 'r) ->
  on_result:(int -> 'r -> unit) ->
  unit ->
  outcome
(** [run ~jobs ~tasks ~worker ~on_event ~on_death ~on_result ()] forks
    up to [min jobs (List.length tasks)] workers and runs
    [worker ~emit i] in a child process for every [i] in [tasks],
    dispatching dynamically (a worker takes the next pending task as
    soon as it finishes one).

    [deps i] lists task indices that must resolve (result handed to
    [on_result], or written off by a worker death) before [i] may be
    dispatched — the runner uses this to serialize corpus entries that
    share a cache key, so intra-run cache hits land on the same entries
    as a sequential run.  Indices not in [tasks] are treated as already
    resolved.
    Dependencies must be acyclic; tasks are otherwise started in [tasks]
    order as workers free up.

    In the coordinator, [on_event] fires for every event a worker
    [emit]ted, in per-worker send order; [on_result i r] fires once per
    task, in completion order — the caller reorders if it needs corpus
    order.  Events and results are framed [Marshal] messages, so ['e]
    and ['r] must be closure-free.  Once every task has resolved, each
    live worker has been told to quit; [run] closes its pipes and reaps
    it before returning.

    {b Group commit.}  The coordinator publishes in commits instead of
    one result at a time, so the caller's [commit] (default: nothing)
    can make everything a commit covers durable with one fsync.
    Results, those [on_death] synthesizes included, are held in
    completion order.  In each turn of the select loop the coordinator
    reads every frame that is ready, hands each event to [on_event] at
    once and dispatches each worker whose result arrived as soon as its
    frames are read, so no worker waits for a commit; then, only if a
    commit is due, it calls [commit ()] once and hands the held results
    to [on_result].  A commit is due when the oldest uncommitted event
    or result is one window (20 ms) old, when the last task has
    arrived, when an idle worker waits while tasks are pending and a
    result is held (a dependency may be among them), when a worker died
    with a task in flight, and before an injected kill or an interrupt
    stops the pool.  While anything is uncommitted, the select waits at
    most for the rest of the window.  A held task counts as resolved
    for [deps] only once it is handed over.

    [on_state ~busy ~idle ~pending] fires in the coordinator after
    every scheduling event (dispatch, task resolution, worker death)
    with the pool's current shape — live workers running a task, live
    workers awaiting one, and tasks not yet dispatched.  Callbacks must
    be fast; they run inside the select loop.  [clock] (default: wall)
    times the [pool.*] scheduler metrics and the watchdog.

    {b Watchdog.}  The select loop runs on a bounded, EINTR-safe tick
    (timeout/4 when a watchdog is armed, clamped to [0.02..0.5]s; 0.5s
    otherwise), never an unbounded block.  With [hang_timeout] set, the
    worker wrapper's [beat] callback ships a heartbeat frame carrying
    the current pipeline phase (["pool.heartbeats"] counts them);
    without it, [beat] sends nothing.  Any frame (heartbeat, event,
    result) refreshes the worker's last-seen stamp.  A busy worker
    silent longer than the timeout is SIGKILLed (counted in
    ["pool.hangs"]) and its task is requeued {e once} ([on_hang ~task
    ~phase] fires, ["pool.hangs.requeued"] counts); if a replacement
    worker hangs on the same task, the task resolves through [on_death]
    with [Hung {hd_phase; hd_silent_s}] so the caller can quarantine it
    under a [hung\@PHASE] taxonomy distinct from crashes.  Detection
    latency is at most [hang_timeout + tick], i.e. well within 2x the
    timeout.

    A worker death with a task in flight synthesizes that task's result
    via [on_death] (after delivering any events the worker sent first)
    and respawns a worker if tasks are still pending.  Exit code 99
    propagates as [Barrier.Killed] (see module doc).  Workers ignore
    SIGINT and die on SIGTERM, so an operator ^C interrupts the
    coordinator only; it then terminates the pool and returns
    [Interrupted] — held results are committed and handed over first;
    results handed to [on_result] stand, the rest are abandoned exactly
    like the sequential runner's interrupt path. *)
