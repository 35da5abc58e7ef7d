(* Live progress for --all: a heartbeat over the runner's observer
   hooks.  Pure state machine over injected events and an injected
   clock; rendering goes through an [emit] callback, so tests drive it
   with a fake clock and capture the output without a terminal. *)

module Journal = Extr_resilience.Journal
module Clock = Extr_telemetry.Clock

type mode = Tty | Lines

type t = {
  pg_clock : Clock.t;
  pg_mode : mode;
  pg_emit : string -> unit;
  pg_min_interval_s : float;  (* Lines-mode rate limit *)
  pg_total : int;
  (* ETA inputs: when each in-flight app started (its Started record's
     write time), and how long finished apps took.  Cached and resumed
     apps never produce a Started record, so they don't pollute the
     per-app average. *)
  pg_started : (string, float) Hashtbl.t;
  mutable pg_durations_sum : float;
  mutable pg_durations_n : int;
  mutable pg_done : int;
  mutable pg_ok : int;
  mutable pg_degraded : int;
  mutable pg_quarantined : int;
  mutable pg_hung : int;  (* quarantines the watchdog caused (hung@PHASE) *)
  mutable pg_cached : int;
  mutable pg_busy : int;
  mutable pg_idle : int;
  mutable pg_pending : int;
  mutable pg_have_state : bool;  (* the pool reported at least once *)
  mutable pg_last_render : float;
  mutable pg_dirty : bool;  (* something changed since the last render *)
}

let create ?(clock = Clock.wall) ?(min_interval_s = 2.0) ~mode ~total ~emit ()
    =
  {
    pg_clock = clock;
    pg_mode = mode;
    pg_emit = emit;
    pg_min_interval_s = min_interval_s;
    pg_total = total;
    pg_started = Hashtbl.create 16;
    pg_durations_sum = 0.0;
    pg_durations_n = 0;
    pg_done = 0;
    pg_ok = 0;
    pg_degraded = 0;
    pg_quarantined = 0;
    pg_hung = 0;
    pg_cached = 0;
    pg_busy = 0;
    pg_idle = 0;
    pg_pending = 0;
    pg_have_state = false;
    pg_last_render = neg_infinity;
    pg_dirty = false;
  }

(* ETA: mean per-app wall time so far, spread over the remaining apps
   and divided by the effective parallelism.  [None] until one app has
   finished end to end (a run of pure cache hits never has an estimate —
   better none than nonsense). *)
let eta_s t =
  if t.pg_durations_n = 0 then None
  else
    let avg = t.pg_durations_sum /. float_of_int t.pg_durations_n in
    let remaining = max 0 (t.pg_total - t.pg_done) in
    let width =
      if t.pg_have_state then max 1 t.pg_busy
      else 1 (* sequential run: no pool state, width 1 *)
    in
    Some (avg *. float_of_int remaining /. float_of_int width)

let pp_eta fmt = function
  | None -> Fmt.pf fmt "--"
  | Some s when s >= 3600.0 -> Fmt.pf fmt "%.1fh" (s /. 3600.0)
  | Some s when s >= 60.0 -> Fmt.pf fmt "%.1fm" (s /. 60.0)
  | Some s -> Fmt.pf fmt "%.0fs" s

let line t =
  let workers =
    if t.pg_have_state then
      Fmt.str " | workers %d busy/%d idle, %d queued" t.pg_busy t.pg_idle
        t.pg_pending
    else ""
  in
  (* The hung segment appears only when the watchdog actually fired, so
     the common line is unchanged. *)
  let hung = if t.pg_hung > 0 then Fmt.str ", %d hung" t.pg_hung else "" in
  Fmt.str "[%d/%d] %d ok, %d degraded, %d quarantined%s, %d cached%s | eta %a"
    t.pg_done t.pg_total t.pg_ok t.pg_degraded t.pg_quarantined hung
    t.pg_cached workers pp_eta (eta_s t)

let render ?(force = false) t =
  if t.pg_dirty then begin
    let now = t.pg_clock () in
    match t.pg_mode with
    | Tty ->
        (* One rewriting status line: carriage return, text,
           erase-to-end-of-line (the previous line may have been
           longer). *)
        t.pg_emit ("\r" ^ line t ^ "\x1b[K");
        t.pg_last_render <- now;
        t.pg_dirty <- false
    | Lines ->
        (* No terminal to rewrite: periodic structured lines, rate
           limited so a fast corpus doesn't flood a CI log. *)
        if force || now -. t.pg_last_render >= t.pg_min_interval_s then begin
          t.pg_emit ("progress: " ^ line t ^ "\n");
          t.pg_last_render <- now;
          t.pg_dirty <- false
        end
  end

let on_journal t ~at ev =
  (match ev with
  | Journal.Started { ev_app; ev_attempt = 1; _ } ->
      Hashtbl.replace t.pg_started ev_app at
  | Journal.Finished { ev_app; _ } -> (
      match Hashtbl.find_opt t.pg_started ev_app with
      | Some t0 ->
          Hashtbl.remove t.pg_started ev_app;
          t.pg_durations_sum <- t.pg_durations_sum +. (at -. t0);
          t.pg_durations_n <- t.pg_durations_n + 1
      | None -> ())
  | Journal.Crashed { ev_phase; _ }
    when String.length ev_phase >= 5 && String.sub ev_phase 0 5 = "hung@" ->
      t.pg_hung <- t.pg_hung + 1
  | Journal.Started _ | Journal.Retried _ | Journal.Crashed _ -> ());
  t.pg_dirty <- true;
  render t

let on_result t (r : Runner.app_result) =
  t.pg_done <- t.pg_done + 1;
  (match r.Runner.ar_status with
  | Runner.Ok -> t.pg_ok <- t.pg_ok + 1
  | Runner.Degraded -> t.pg_degraded <- t.pg_degraded + 1
  | Runner.Quarantined -> t.pg_quarantined <- t.pg_quarantined + 1);
  if r.Runner.ar_cached then t.pg_cached <- t.pg_cached + 1;
  t.pg_dirty <- true;
  render t

let on_state t ~busy ~idle ~pending =
  t.pg_have_state <- true;
  t.pg_busy <- busy;
  t.pg_idle <- idle;
  t.pg_pending <- pending;
  t.pg_dirty <- true;
  render t

let finish t =
  match t.pg_mode with
  | Tty ->
      (* Clear the status line; the summary table footer replaces it. *)
      t.pg_emit "\r\x1b[K"
  | Lines ->
      t.pg_dirty <- true;
      render ~force:true t
