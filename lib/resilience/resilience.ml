(* Resource governance and graceful degradation.

   The paper's headline claim (§5, Table 1) is that static analysis
   completes on every app, including closed-source ones full of
   pathological code.  This module is how that claim stays honest at
   scale: a single {!Budget} meters every abstract step the pipeline
   takes (taint worklist iterations, interpreted statements) against
   step fuel, a call-depth bound and an optional wall-clock deadline;
   the {!Degrade} ledger records every place a phase bailed instead of
   finishing, so truncated results are reported, never silent; and
   {!Barrier} isolates whole-app crashes so one malformed app cannot
   take down a corpus run. *)

module Clock = Extr_telemetry.Clock
module Metrics = Extr_telemetry.Metrics

let src = Logs.Src.create "extractocol.resilience" ~doc:"Budgets and degradation"

module Log = (val Logs.src_log src : Logs.LOG)

module Budget = struct
  type limits = {
    bl_max_steps : int;
    bl_max_depth : int;
    bl_deadline_s : float option;
  }

  (* 20M steps is ~10x the largest corpus app (Pinterest spends ~1.4M
     worklist steps + ~17k interpreted statements); generous enough never
     to trip on a well-formed app, small enough to bound a pathological
     one. *)
  let default_limits =
    { bl_max_steps = 20_000_000; bl_max_depth = 24; bl_deadline_s = None }

  let unlimited =
    { bl_max_steps = max_int; bl_max_depth = max_int; bl_deadline_s = None }

  type exhaustion = Steps | Depth | Deadline

  let exhaustion_reason = function
    | Steps -> "step-budget-exhausted"
    | Depth -> "call-depth-clipped"
    | Deadline -> "deadline-exceeded"

  type t = {
    limits : limits;
    clock : Clock.t;
    started : float;
    mutable steps : int;
    mutable tripped : exhaustion option;
        (** sticky fuel/deadline trip; [Depth] never sticks here *)
    mutable depth_clipped : bool;  (** some call exceeded the depth bound *)
  }

  let create ?(clock = Clock.wall) ?(limits = default_limits) () =
    { limits; clock; started = clock (); steps = 0; tripped = None; depth_clipped = false }

  (* Reading the clock on every step would dominate the hot loops; a
     masked check every 4096 steps bounds the overshoot to microseconds. *)
  let deadline_mask = 0xFFF

  let deadline_passed t =
    match t.limits.bl_deadline_s with
    | None -> false
    | Some d -> t.clock () -. t.started > d

  (** Is any sticky resource (fuel, deadline) still available? *)
  let alive t = t.tripped = None

  (** Consume one abstract step.  Returns [false] once the step fuel or
      the deadline is exhausted; consumers must stop doing work (and
      record a degradation) when that happens. *)
  let spend t =
    match t.tripped with
    | Some _ -> false
    | None ->
        t.steps <- t.steps + 1;
        if t.steps > t.limits.bl_max_steps then begin
          t.tripped <- Some Steps;
          false
        end
        else if t.steps land deadline_mask = 0 && deadline_passed t then begin
          t.tripped <- Some Deadline;
          false
        end
        else true

  (** Is a call at [depth] within the inlining bound?  Exceeding it is
      not sticky — it only clips that call — but it is remembered so the
      clipping can surface as a degradation. *)
  let depth_ok t ~depth =
    if depth > t.limits.bl_max_depth then begin
      t.depth_clipped <- true;
      false
    end
    else true

  let steps_used t = t.steps
  let exhaustion t = t.tripped
  let depth_clipped t = t.depth_clipped
end

(* ------------------------------------------------------------------ *)
(* Degradation ledger                                                 *)
(* ------------------------------------------------------------------ *)

module Degrade = struct
  type degradation = {
    dg_phase : string;  (** pipeline phase that bailed, e.g. "slicing.backward" *)
    dg_reason : string;  (** see {!Budget.exhaustion_reason}, or "crash" *)
    dg_detail : string;  (** where and what, human-readable *)
    dg_work_left : int;  (** work items remaining when the phase bailed *)
  }

  type t = { mutable items : degradation list (* newest first *) }

  let create () = { items = [] }

  (* One process-wide ledger, always on: degradations are results, not
     observability, so there is no enabled flag to forget. *)
  let default = create ()

  let reset t = t.items <- []

  let m_degradations =
    Metrics.counter
      ~help:"phases that bailed before finishing their work (phase, reason)"
      "pipeline.degradations"

  let record ?(ledger = default) ~phase ~reason ?(work_left = 0) detail =
    (* Each bail still bumps the metric, but the ledger coalesces repeats
       of the same (phase, reason) — an exhausted budget bails once per
       demarcation point, and a report with hundreds of identical lines
       says less than one line with the summed work left. *)
    let repeat =
      List.exists
        (fun d -> d.dg_phase = phase && d.dg_reason = reason)
        ledger.items
    in
    if repeat then
      ledger.items <-
        List.map
          (fun d ->
            if d.dg_phase = phase && d.dg_reason = reason then
              { d with dg_work_left = d.dg_work_left + work_left }
            else d)
          ledger.items
    else begin
      ledger.items <-
        {
          dg_phase = phase;
          dg_reason = reason;
          dg_detail = detail;
          dg_work_left = work_left;
        }
        :: ledger.items;
      Log.warn (fun m ->
          m "%s degraded (%s): %s [%d work items left]" phase reason detail
            work_left)
    end;
    if Metrics.is_enabled Metrics.default then
      Metrics.incr m_degradations
        ~labels:[ ("phase", phase); ("reason", reason) ]

  (** Record a budget exhaustion, if the budget actually tripped. *)
  let record_exhaustion ?ledger ~phase ?(work_left = 0) (b : Budget.t) detail =
    match Budget.exhaustion b with
    | None -> ()
    | Some e ->
        record ?ledger ~phase ~reason:(Budget.exhaustion_reason e) ~work_left
          detail

  let items t = List.rev t.items

  let pp_degradation fmt d =
    Fmt.pf fmt "%s: %s (%s)%s" d.dg_phase d.dg_reason d.dg_detail
      (if d.dg_work_left > 0 then Fmt.str " [%d work items left]" d.dg_work_left
       else "")
end

(* ------------------------------------------------------------------ *)
(* Per-app fault isolation                                            *)
(* ------------------------------------------------------------------ *)

module Barrier = struct
  exception Killed
  exception Interrupted

  (* The pipeline stamps its current Figure-2 phase here so a crash can
     be attributed to the stage that raised, without threading state
     through every call. *)
  let current_phase = ref "init"

  (* Phase observer: the pool's worker wrapper registers a heartbeat
     sender here, so every phase transition doubles as a liveness
     signal without threading a callback through the pipeline. *)
  let observer : (string -> unit) ref = ref (fun _ -> ())
  let set_observer f = observer := f
  let clear_observer () = observer := fun _ -> ()

  (* Every phase name is also a fault site: an armed [PHASE@N:kill]
     simulates the process dying at that phase boundary, so a journaled
     run is cut off exactly as a kill -9 would cut it. *)
  let set_phase p =
    current_phase := p;
    !observer p;
    if Fault.fire p <> None then raise Killed

  let phase () = !current_phase

  type crash = {
    cr_app : string;
    cr_exn : string;  (** exception constructor, e.g. [Invalid_argument] *)
    cr_phase : string;  (** pipeline phase active when it raised *)
    cr_backtrace : string;
  }

  (** Run [f] behind an exception barrier.  Any exception — including
      [Stack_overflow] and [Out_of_memory] — becomes an [Error crash]
      carrying the exception class, the pipeline phase it escaped from,
      and the raw backtrace. *)
  let protect ~app (f : unit -> 'a) : ('a, crash) result =
    set_phase "init";
    let recording = Printexc.backtrace_status () in
    if not recording then Printexc.record_backtrace true;
    let restore () = if not recording then Printexc.record_backtrace false in
    match f () with
    | v ->
        restore ();
        Ok v
    (* Control exceptions cross the barrier: an injected kill or an
       operator interrupt must stop the whole corpus run, not be
       misreported as one app's crash. *)
    | exception ((Killed | Interrupted) as e) ->
        restore ();
        raise e
    | exception exn ->
        let bt = Printexc.get_backtrace () in
        restore ();
        Error
          {
            cr_app = app;
            cr_exn = Printexc.to_string exn;
            cr_phase = phase ();
            cr_backtrace = bt;
          }

  let pp_crash fmt c =
    Fmt.pf fmt "%s crashed in phase %s: %s" c.cr_app c.cr_phase c.cr_exn
end
