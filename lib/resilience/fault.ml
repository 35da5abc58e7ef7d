(* Fault injection: a deterministic plan of named sites.
   See the .mli for the grammar and matching rules; this file is a flat
   list of armed entries consulted by instrumented call sites. *)

module Metrics = Extr_telemetry.Metrics
module Export = Extr_telemetry.Export

let src = Logs.Src.create "extractocol.fault" ~doc:"Fault injection"

module Log = (val Logs.src_log src : Logs.LOG)

let m_injected =
  Metrics.counter ~help:"faults fired by the injection plan"
    "fault.injected"

type entry = {
  fe_site : string;
  fe_occurrence : int;  (* fires on the Nth matching hit, 1-based *)
  fe_mode : string;  (* site-interpreted; "" = the site's default *)
  mutable fe_hits : int;
  mutable fe_fired : bool;  (* one-shot per process *)
}

let plan : entry list ref = ref []

let reset () = plan := []

let fire ?arg site =
  let matches e =
    e.fe_site = site
    && (not e.fe_fired)
    &&
    match arg with
    | Some a when e.fe_mode <> "" -> e.fe_mode = a
    | _ -> true
  in
  match List.find_opt matches !plan with
  | None -> None
  | Some e ->
      e.fe_hits <- e.fe_hits + 1;
      if e.fe_hits >= e.fe_occurrence then begin
        e.fe_fired <- true;
        if Metrics.is_enabled Metrics.default then
          Metrics.incr ~labels:[ ("site", site) ] m_injected;
        Log.warn (fun m ->
            m "injecting fault at %s (hit %d%s)" site e.fe_hits
              (if e.fe_mode = "" then "" else ", mode " ^ e.fe_mode));
        Some e.fe_mode
      end
      else None

(* The export layer sits below this library, so it cannot consult the
   plan directly; it exposes a hook instead, installed on first arm.
   Idempotent — installing twice is harmless. *)
let install_export_hook () =
  Export.set_write_fault (fun _path -> fire "export.write")

let arm ~site ?(occurrence = 1) ?(mode = "") () =
  plan :=
    !plan
    @ [
        {
          fe_site = site;
          fe_occurrence = max 1 occurrence;
          fe_mode = mode;
          fe_hits = 0;
          fe_fired = false;
        };
      ];
  install_export_hook ()

(* SITE[@N][:MODE] — the mode (an app name for targeted sites) may
   itself contain '@', so the occurrence is parsed out of the part
   before the first ':'. *)
let parse spec =
  let spec = String.trim spec in
  let head, mode =
    match String.index_opt spec ':' with
    | Some i ->
        ( String.sub spec 0 i,
          String.sub spec (i + 1) (String.length spec - i - 1) )
    | None -> (spec, "")
  in
  let site, occurrence =
    match String.index_opt head '@' with
    | Some i -> (
        let n = String.sub head (i + 1) (String.length head - i - 1) in
        match int_of_string_opt n with
        | Some k when k >= 1 -> (String.sub head 0 i, Result.Ok k)
        | _ -> (head, Result.Error ()))
    | None -> (head, Result.Ok 1)
  in
  match occurrence with
  | Result.Error () ->
      Result.Error
        (Printf.sprintf "--inject %s: occurrence must be a positive integer"
           spec)
  | Result.Ok _ when site = "" ->
      Result.Error (Printf.sprintf "--inject %s: empty site name" spec)
  | Result.Ok occurrence -> Result.Ok (site, occurrence, mode)

let arm_spec spec =
  match parse spec with
  | Result.Error _ as e -> e
  | Result.Ok (site, occurrence, mode) ->
      arm ~site ~occurrence ~mode ();
      Result.Ok ()
