(* Fork-based worker pool.  See the .mli for the coordinator/worker
   contract; this file is the plumbing: framed Marshal IPC over pipes, a
   select loop, and careful fd/signal hygiene around fork. *)

module Barrier = Extr_resilience.Resilience.Barrier
module Fault = Extr_resilience.Fault
module Metrics = Extr_telemetry.Metrics
module Clock = Extr_telemetry.Clock

let src = Logs.Src.create "extractocol.pool" ~doc:"Corpus worker pool"

module Log = (val Logs.src_log src : Logs.LOG)

type outcome = Completed | Interrupted

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* Scheduler instrumentation                                          *)
(* ------------------------------------------------------------------ *)

(* All coordinator-side: the pool is the scheduler, so dispatch latency,
   per-worker busy/idle time and queue depth are measured where the
   decisions happen.  Worker-side analysis metrics travel separately, as
   per-task deltas merged by the runner. *)

(* Wall-clock quantities in microseconds outgrow the default 1–100k
   ladder (a busy task runs seconds); extend it to 100s. *)
let us_buckets =
  [ 10.; 50.; 100.; 500.; 1_000.; 5_000.; 10_000.; 50_000.; 100_000.;
    500_000.; 1e6; 5e6; 1e7; 5e7; 1e8 ]

let m_dispatched =
  Metrics.counter ~help:"tasks handed to a worker" "pool.tasks.dispatched"

let m_dispatch_latency =
  Metrics.histogram ~help:"scheduler dead time per dispatch: worker idle -> task sent (us)"
    ~buckets:us_buckets "pool.dispatch.latency_us"

let m_worker_busy =
  Metrics.histogram ~help:"per-task worker busy time: dispatch -> result (us)"
    ~buckets:us_buckets "pool.worker.busy_us"

let m_worker_idle =
  Metrics.histogram
    ~help:"per-worker idle time between tasks (us); the per-worker view of pool.dispatch.latency_us"
    ~buckets:us_buckets "pool.worker.idle_us"

let m_queue_depth =
  Metrics.gauge ~help:"tasks pending dispatch (last observed)" "pool.queue.depth"

let m_queue_depth_hist =
  Metrics.histogram ~help:"queue depth sampled at every scheduling event"
    ~buckets:[ 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500. ]
    "pool.queue.depth_sampled"

let m_spawns = Metrics.counter ~help:"workers forked" "pool.worker.spawns"

let m_deaths =
  Metrics.counter ~help:"workers that died with a task in flight or mid-pool"
    "pool.worker.deaths"

let m_respawns =
  Metrics.counter ~help:"replacement workers forked after a death" "pool.respawns"

let m_hangs =
  Metrics.counter ~help:"workers SIGKILLed by the hung-worker watchdog"
    "pool.hangs"

let m_hang_requeues =
  Metrics.counter ~help:"tasks requeued after their worker hung"
    "pool.hangs.requeued"

let m_heartbeats =
  Metrics.counter ~help:"worker heartbeat frames received" "pool.heartbeats"

(* ------------------------------------------------------------------ *)
(* Framed Marshal IPC                                                 *)
(* ------------------------------------------------------------------ *)

(* Each message is a 4-byte big-endian payload length followed by the
   Marshal bytes.  Pipes don't preserve message boundaries, so the
   coordinator reassembles frames from a per-worker byte buffer. *)

exception Closed  (* peer hung up (EOF) *)

let rec write_all fd b pos len =
  if len > 0 then begin
    let n =
      try Unix.write fd b pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd b (pos + n) (len - n)
  end

let send fd v =
  let payload = Marshal.to_bytes v [] in
  let n = Bytes.length payload in
  let frame = Bytes.create (4 + n) in
  Bytes.set_int32_be frame 0 (Int32.of_int n);
  Bytes.blit payload 0 frame 4 n;
  write_all fd frame 0 (4 + n)

let read_exact fd n =
  let b = Bytes.create n in
  let rec go pos =
    if pos < n then
      match Unix.read fd b pos (n - pos) with
      | 0 -> raise Closed
      | k -> go (pos + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
  in
  go 0;
  b

let recv fd =
  let hdr = read_exact fd 4 in
  let n = Int32.to_int (Bytes.get_int32_be hdr 0) in
  Marshal.from_bytes (read_exact fd n) 0

(* Worker -> coordinator; coordinator -> worker.  [Up_beat] is a
   heartbeat: the current pipeline phase, sent by the worker wrapper on
   every phase transition while a watchdog is armed, so the coordinator
   can tell "busy" from "hung" — and attribute a hang to the phase the
   worker last entered.  A worker answers [Down_quit] (or EOF) by
   exiting 0 without sending anything. *)
type ('e, 'r) up = Up_event of 'e | Up_done of int * 'r | Up_beat of string

type down = Down_task of int | Down_quit

(* Why a worker's death resolved its in-flight task: [Died] is the
   classic crash (signal, _exit); [Hung] is a watchdog kill — the
   worker went silent mid-task for longer than the hang timeout and was
   SIGKILLed after its one requeue was spent. *)
type death_cause =
  | Died of string
  | Hung of { hd_phase : string; hd_silent_s : float }

(* ------------------------------------------------------------------ *)
(* Worker side                                                        *)
(* ------------------------------------------------------------------ *)

(* Runs in the forked child; never returns.  [Unix._exit] everywhere:
   the child must not flush channels or run at_exit hooks it inherited
   from the coordinator.  Heartbeats are only for the watchdog: without
   one, [beat] sends nothing. *)
let worker_main ~task_r ~res_w ~watched ~worker =
  (* SIGINT interrupts the coordinator only (it terminates us with
     SIGTERM, restored to its default lethal disposition here — the
     CLI's inherited handler would raise inside analysis instead).
     SIGPIPE must not kill us mid-send if the coordinator died first;
     the EPIPE surfaces as an exception below. *)
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm Sys.Signal_default;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let emit e = send res_w (Up_event e) in
  let beat ~phase = if watched then send res_w (Up_beat phase) in
  let code =
    try
      let rec loop () =
        match (recv task_r : down) with
        | Down_quit -> 0
        | Down_task i -> (
            let r = worker ~emit ~beat i in
            match Fault.fire "pool.frame" with
            | Some _ ->
                (* Truncated frame: ship half the result's bytes, then
                   die — the coordinator must treat the partial frame
                   as a worker death, never block on its completion. *)
                let payload = Marshal.to_bytes (Up_done (i, r)) [] in
                let n = Bytes.length payload in
                let frame = Bytes.create (4 + n) in
                Bytes.set_int32_be frame 0 (Int32.of_int n);
                Bytes.blit payload 0 frame 4 n;
                write_all res_w frame 0 ((4 + n) / 2);
                Unix._exit 70
            | None ->
                send res_w (Up_done (i, r));
                loop ())
      in
      loop ()
    with
    | Closed | Unix.Unix_error (Unix.EPIPE, _, _) -> 0
    | Barrier.Killed -> 99
    | Barrier.Interrupted -> 130
    | _ -> 70
  in
  Unix._exit code

(* ------------------------------------------------------------------ *)
(* Coordinator side                                                   *)
(* ------------------------------------------------------------------ *)

type wstate = {
  ws_id : int;  (* 1-based spawn order; the trace/metrics worker label *)
  ws_pid : int;
  ws_task_w : Unix.file_descr;  (* coordinator -> worker commands *)
  ws_res_r : Unix.file_descr;  (* worker -> coordinator frames *)
  ws_buf : Buffer.t;  (* partial frame reassembly *)
  mutable ws_task : int option;  (* the one task in flight, if any *)
  mutable ws_alive : bool;
  mutable ws_quit : bool;  (* Down_quit already sent *)
  mutable ws_idle_since : float;  (* spawn or last result arrival *)
  mutable ws_busy_since : float option;  (* dispatch time of ws_task *)
  mutable ws_seen : float;  (* last bytes received (watchdog liveness) *)
  mutable ws_phase : string;  (* last heartbeat's pipeline phase *)
  mutable ws_hung : string option;  (* phase at watchdog kill *)
}

let spawn ~clock ~next_id ~siblings ~watched ~worker =
  let task_r, task_w = Unix.pipe () in
  let res_r, res_w = Unix.pipe () in
  (* Anything buffered pre-fork would otherwise be written twice. *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close task_w;
      Unix.close res_r;
      (* Close the coordinator's ends of every sibling's pipes: a pipe's
         read end only sees EOF once ALL write ends are closed, so a
         leaked sibling fd would mask that sibling's death from the
         coordinator. *)
      List.iter
        (fun w ->
          if w.ws_alive then begin
            (try Unix.close w.ws_task_w with Unix.Unix_error _ -> ());
            (try Unix.close w.ws_res_r with Unix.Unix_error _ -> ())
          end)
        siblings;
      worker_main ~task_r ~res_w ~watched ~worker
  | pid ->
      Unix.close task_r;
      Unix.close res_w;
      Metrics.incr m_spawns;
      {
        ws_id = next_id;
        ws_pid = pid;
        ws_task_w = task_w;
        ws_res_r = res_r;
        ws_buf = Buffer.create 256;
        ws_task = None;
        ws_alive = true;
        ws_quit = false;
        ws_idle_since = clock ();
        ws_busy_since = None;
        ws_seen = clock ();
        ws_phase = "start";
        ws_hung = None;
      }

(* Group commit: the longest an event or a result waits for the commit
   that publishes it.  20 ms is far below a cold app's analysis and caps
   the fsyncs at 50 a second however fast results arrive. *)
let commit_window = 0.02

let describe_status = function
  | Unix.WEXITED n -> Printf.sprintf "worker exited with code %d" n
  | Unix.WSIGNALED sg -> Printf.sprintf "worker killed by signal %d" sg
  | Unix.WSTOPPED sg -> Printf.sprintf "worker stopped by signal %d" sg

let run ?(deps = fun (_ : int) -> []) ?(clock = Clock.wall)
    ?(on_state = fun ~busy:(_ : int) ~idle:(_ : int) ~pending:(_ : int) -> ())
    ?hang_timeout ?(on_hang = fun ~task:(_ : int) ~phase:(_ : string) -> ())
    ?(commit = fun () -> ()) ~jobs ~tasks ~worker ~on_event ~on_death
    ~on_result () =
  let ntasks = List.length tasks in
  if ntasks = 0 then Completed
  else begin
    (* A dead worker must surface as EPIPE on dispatch, not kill us. *)
    let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    (* Dependency-aware dispatch: a task is ready once every dep that is
       itself a task has resolved (delivered a result or been written
       off by a worker death).  Deps outside [tasks] were resolved
       before the pool started — they never block. *)
    let task_set = Hashtbl.create 64 in
    List.iter (fun i -> Hashtbl.replace task_set i ()) tasks;
    let resolved = Hashtbl.create 64 in
    let pending = ref tasks in
    let ready i =
      List.for_all
        (fun d -> (not (Hashtbl.mem task_set d)) || Hashtbl.mem resolved d)
        (deps i)
    in
    let take_ready () =
      let rec go acc = function
        | [] -> None
        | i :: rest when ready i ->
            pending := List.rev_append acc rest;
            Some i
        | i :: rest -> go (i :: acc) rest
      in
      go [] !pending
    in
    (* Tasks whose result has not arrived yet. *)
    let remaining = ref ntasks in
    (* Group commit.  Results wait in [held], in completion order, until
       a commit publishes them; [uncommitted_since] is the arrival time
       of the oldest event or result no commit has covered yet. *)
    let held = Queue.create () in
    let uncommitted_since = ref None in
    let died = ref false in
    let note_uncommitted () =
      if !uncommitted_since = None then uncommitted_since := Some (clock ())
    in
    let arrive i r =
      decr remaining;
      Queue.push (i, r) held;
      note_uncommitted ()
    in
    (* Respawn budget: generous for real worker deaths, finite so a
       worker that dies on spawn cannot fork-loop forever. *)
    let respawns = ref (8 + (2 * ntasks)) in
    let workers = ref [] in
    let worker_count = ref 0 in
    let killed = ref false in
    (* A task whose worker hangs is requeued once through the retry
       ladder; a second hang quarantines it — the same
       escalate-then-give-up shape the in-process ladder applies to
       crashes. *)
    let hang_requeued = Hashtbl.create 4 in
    (* Bounded, EINTR-safe select tick: short enough that a hang is
       detected well within 2x the timeout (tick = timeout/4, floored
       so a tiny test timeout cannot busy-spin), long enough that an
       idle coordinator wakes rarely.  Without a watchdog the tick only
       bounds how long a wedged select outlives its last live fd. *)
    let tick =
      match hang_timeout with
      | Some t -> Float.max 0.02 (Float.min 0.5 (t /. 4.))
      | None -> 0.5
    in
    let observe_queue () =
      let depth = List.length !pending in
      Metrics.set m_queue_depth (float_of_int depth);
      Metrics.observe m_queue_depth_hist (float_of_int depth)
    in
    let notify_state () =
      let busy, idle =
        List.fold_left
          (fun (b, i) w ->
            if not w.ws_alive then (b, i)
            else if w.ws_task <> None then (b + 1, i)
            else (b, i + 1))
          (0, 0) !workers
      in
      on_state ~busy ~idle ~pending:(List.length !pending)
    in
    let worker_label w = [ ("worker", string_of_int w.ws_id) ] in
    let reap w =
      let rec go () =
        match Unix.waitpid [] w.ws_pid with
        | _, st -> st
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0
      in
      go ()
    in
    let close_fds w =
      (try Unix.close w.ws_task_w with Unix.Unix_error _ -> ());
      (try Unix.close w.ws_res_r with Unix.Unix_error _ -> ())
    in
    let dispatch w =
      match take_ready () with
      | Some i -> (
          match send w.ws_task_w (Down_task i) with
          | () ->
              w.ws_task <- Some i;
              let now = clock () in
              let idle_us = 1e6 *. (now -. w.ws_idle_since) in
              w.ws_busy_since <- Some now;
              (* The watchdog counts silence from dispatch, not from
                 the worker's last frame — an idle stretch before this
                 task must not count against it. *)
              w.ws_seen <- now;
              w.ws_phase <- "start";
              Metrics.incr m_dispatched;
              Metrics.observe m_dispatch_latency idle_us;
              Metrics.observe m_worker_idle ~labels:(worker_label w) idle_us;
              observe_queue ()
          | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
              (* Dead worker; the EOF path will reap it and respawn. *)
              pending := i :: !pending)
      | None ->
          (* Nothing ready.  Only quit the worker once nothing is even
             pending — a blocked task may become ready when an in-flight
             dependency resolves, and this idle worker must still be
             around to take it. *)
          if !pending = [] && not w.ws_quit then begin
            w.ws_quit <- true;
            try send w.ws_task_w Down_quit
            with Unix.Unix_error (Unix.EPIPE, _, _) -> ()
          end
    in
    (* A resolution can unblock tasks that idle workers skipped over. *)
    let dispatch_idle () =
      List.iter
        (fun w -> if w.ws_alive && w.ws_task = None then dispatch w)
        !workers
    in
    let new_worker () =
      incr worker_count;
      let w =
        spawn ~clock ~next_id:!worker_count ~siblings:!workers
          ~watched:(hang_timeout <> None) ~worker
      in
      workers := w :: !workers;
      dispatch w
    in
    (* Parse every complete frame out of [w]'s buffer. *)
    let drain_frames w =
      let s = Buffer.contents w.ws_buf in
      let len = String.length s in
      let pos = ref 0 in
      (try
         while len - !pos >= 4 do
           let n = Int32.to_int (String.get_int32_be s !pos) in
           if len - !pos - 4 < n then raise Exit;
           let payload = String.sub s (!pos + 4) n in
           pos := !pos + 4 + n;
           match (Marshal.from_string payload 0 : ('e, 'r) up) with
           | Up_event e ->
               on_event e;
               note_uncommitted ()
           | Up_beat phase ->
               w.ws_phase <- phase;
               Metrics.incr m_heartbeats
           | Up_done (i, r) ->
               w.ws_task <- None;
               let now = clock () in
               (match w.ws_busy_since with
               | Some t0 ->
                   Metrics.observe m_worker_busy ~labels:(worker_label w)
                     (1e6 *. (now -. t0))
               | None -> ());
               w.ws_busy_since <- None;
               w.ws_idle_since <- now;
               arrive i r
         done
       with Exit -> ());
      if !pos > 0 then begin
        Buffer.clear w.ws_buf;
        Buffer.add_substring w.ws_buf s !pos (len - !pos)
      end
    in
    let handle_death w =
      w.ws_alive <- false;
      let st = reap w in
      (* The pipe is at EOF, so the buffer holds everything the worker
         managed to send — deliver a final result that beat the death,
         and journal events for the task it died on. *)
      drain_frames w;
      close_fds w;
      if st = Unix.WEXITED 99 then killed := true;
      (match w.ws_task with
      | Some i when not !killed -> (
          w.ws_task <- None;
          (* A death costs its task: commit now, so the death result is
             published, and a requeue journaled, without waiting. *)
          died := true;
          note_uncommitted ();
          match w.ws_hung with
          | Some phase when not (Hashtbl.mem hang_requeued i) ->
              (* First hang: give the task one more worker.  The fault
                 that hung it may have been environmental (a wedged
                 mount, a leaked lock); a deterministic hang will
                 simply hang the replacement and land in the branch
                 below. *)
              Hashtbl.replace hang_requeued i ();
              Metrics.incr m_hang_requeues;
              Log.warn (fun m ->
                  m "task %d: worker hung in %s; requeuing once" i phase);
              pending := i :: !pending;
              observe_queue ();
              on_hang ~task:i ~phase
          | Some phase ->
              Metrics.incr m_deaths;
              let silent_s =
                match hang_timeout with Some t -> t | None -> 0.0
              in
              Log.warn (fun m ->
                  m "task %d: worker hung in %s again; quarantining" i phase);
              arrive i
                (on_death ~task:i
                   ~cause:(Hung { hd_phase = phase; hd_silent_s = silent_s }))
          | None ->
              Metrics.incr m_deaths;
              let reason = describe_status st in
              Log.warn (fun m -> m "task %d: %s" i reason);
              arrive i (on_death ~task:i ~cause:(Died reason)))
      | _ -> ());
      if (not !killed) && !pending <> [] then begin
        if !respawns > 0 then begin
          decr respawns;
          Metrics.incr m_respawns;
          new_worker ()
        end
        else begin
          (* No-progress backstop: fail what's queued rather than fork
             forever against a worker that dies on arrival. *)
          List.iter
            (fun i ->
              arrive i
                (on_death ~task:i
                   ~cause:(Died "worker pool: respawn budget exhausted")))
            !pending;
          pending := [];
          observe_queue ()
        end
      end;
      if not !killed then begin
        dispatch_idle ();
        notify_state ()
      end
    in
    (* A commit is due when waiting longer would cost more than the
       fsync saves: the window has closed, nothing is left to wait for,
       a worker idles on a task blocked behind a held result (namesake
       entries must still hit the cache), or a worker died with a task
       in flight. *)
    let commit_due () =
      match !uncommitted_since with
      | None -> false
      | Some t0 ->
          !remaining = 0 || !died
          || clock () -. t0 >= commit_window
          || (!pending <> [] && (not (Queue.is_empty held))
             && List.exists (fun w -> w.ws_alive && w.ws_task = None) !workers)
    in
    (* One commit, then the results it covers, in completion order.  A
       held task resolves for [deps] only here.  Each result leaves the
       queue before [on_result] runs, so an interrupt raised inside it
       cannot deliver it twice. *)
    let publish () =
      uncommitted_since := None;
      died := false;
      commit ();
      while not (Queue.is_empty held) do
        let i, r = Queue.pop held in
        Hashtbl.replace resolved i ();
        on_result i r
      done
    in
    (* Pipes close before the reap: a worker still blocked on its task
       pipe then reads EOF and exits. *)
    let stop ?signal () =
      List.iter
        (fun w ->
          if w.ws_alive then begin
            w.ws_alive <- false;
            Option.iter
              (fun sg -> try Unix.kill w.ws_pid sg with Unix.Unix_error _ -> ())
              signal;
            close_fds w;
            ignore (reap w)
          end)
        !workers
    in
    Fun.protect
      ~finally:(fun () -> Sys.set_signal Sys.sigpipe old_pipe)
      (fun () ->
        match
          for _ = 1 to min jobs ntasks do
            new_worker ()
          done;
          notify_state ();
          let chunk = Bytes.create 65536 in
          (* Watchdog scan, run once per select wake-up (data or tick):
             any busy worker silent past the timeout is SIGKILLed; the
             resulting EOF routes through handle_death, which requeues
             or quarantines its task.  [ws_hung] carries the phase the
             worker last heartbeat from, so the taxonomy can say
             hung@PHASE. *)
          let check_hangs () =
            match hang_timeout with
            | None -> ()
            | Some limit ->
                let now = clock () in
                List.iter
                  (fun w ->
                    if
                      w.ws_alive && w.ws_task <> None && w.ws_hung = None
                      && now -. w.ws_seen > limit
                    then begin
                      w.ws_hung <- Some w.ws_phase;
                      Metrics.incr m_hangs;
                      Log.warn (fun m ->
                          m
                            "worker %d (pid %d) silent for %.1fs in phase %s; \
                             killing"
                            w.ws_id w.ws_pid (now -. w.ws_seen) w.ws_phase);
                      try Unix.kill w.ws_pid Sys.sigkill
                      with Unix.Unix_error _ -> ()
                    end)
                  !workers
          in
          (* One turn: read every frame that is ready, hand its events
             to [on_event], dispatch each worker whose result arrived as
             soon as its frames are read, and only then commit, if a
             commit is due.  While anything is uncommitted the select
             waits at most for the rest of the window. *)
          while
            (!remaining > 0 || not (Queue.is_empty held)) && not !killed
          do
            let live = List.filter (fun w -> w.ws_alive) !workers in
            let fds = List.map (fun w -> w.ws_res_r) live in
            let timeout =
              match !uncommitted_since with
              | None -> tick
              | Some t0 ->
                  Float.max 0.
                    (Float.min tick (t0 +. commit_window -. clock ()))
            in
            let readable, _, _ =
              try Unix.select fds [] [] timeout
              with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
            in
            List.iter
              (fun fd ->
                match
                  List.find_opt
                    (fun w -> w.ws_alive && w.ws_res_r = fd)
                    !workers
                with
                | None -> ()
                | Some w -> (
                    match Unix.read fd chunk 0 (Bytes.length chunk) with
                    | 0 -> handle_death w
                    | k ->
                        w.ws_seen <- clock ();
                        Buffer.add_subbytes w.ws_buf chunk 0 k;
                        drain_frames w;
                        if w.ws_alive && w.ws_task = None then begin
                          dispatch w;
                          notify_state ()
                        end
                    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
              readable;
            check_hangs ();
            if commit_due () && not !killed then begin
              publish ();
              dispatch_idle ();
              notify_state ()
            end
          done
        with
        | () ->
            if !killed then begin
              (* An injected kill simulates the whole process dying:
                 commit what was read, take the rest of the pool down
                 with it and re-raise the barrier exception in the
                 coordinator. *)
              publish ();
              stop ~signal:Sys.sigkill ();
              raise Barrier.Killed
            end;
            (* Every live worker has delivered its last result and been
               sent Down_quit (its dispatch after that result found the
               queue empty).  It exits 0 on Down_quit or EOF and sends
               nothing after either, so no signal and nothing to read. *)
            stop ();
            notify_state ();
            Completed
        | exception Barrier.Interrupted ->
            publish ();
            stop ~signal:Sys.sigterm ();
            Interrupted)
  end
