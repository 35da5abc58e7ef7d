(* Taint transfer models for library calls.  When taint propagation meets a
   library invoke it cannot look inside the callee, so the semantic model
   states how taint flows through the API: whether the return value or the
   receiver becomes tainted given tainted inputs, whether the call writes a
   tainted value into a global store (the SQLite database rows — the paper's
   TED case study tracks dependencies through
   android.database.sqlite.SQLiteDatabase), and whether the data originates
   from a privacy-relevant source (GPS, microphone). *)

module Ir = Extr_ir.Types

(** Effect of a library call on taint state given which inputs are tainted. *)
type effect = {
  taint_ret : bool;
  taint_base : bool;  (** receiver accumulates taint (builders, containers) *)
  db_write : string option;
      (** write tainted data into the named pseudo-store ("db:<table>") *)
  db_read : string option;  (** return taint when the named store is tainted *)
}

let no_effect = { taint_ret = false; taint_base = false; db_write = None; db_read = None }

(** Constant string value of an invoke argument, when statically known. *)
let const_str_arg (i : Ir.invoke) idx =
  match List.nth_opt i.Ir.iargs idx with
  | Some (Ir.Const (Ir.Cstr s)) -> Some s
  | Some _ | None -> None

(** [transfer invoke ~base_tainted ~args_tainted] — the taint effect of a
    library call.  [args_tainted] is per-argument. *)
let transfer (i : Ir.invoke) ~base_tainted ~args_tainted : effect =
  let any_arg = List.exists Fun.id args_tainted in
  let any_input = base_tainted || any_arg in
  match Api.model_of i with
  | Some Libmodel.(Log | Str_equals | Res_string) ->
      (* Sanitizers / non-flows: logging and pure predicates do not carry
         protocol payloads onward, and resource strings are constants from
         the APK, never tainted. *)
      no_effect
  | Some Libmodel.Db_write ->
      (* insert(table, values): tainted values taint the table store. *)
      { no_effect with db_write = (if any_arg then const_str_arg i 0 else None) }
  | Some Libmodel.Db_query ->
      (* query(table) returns a cursor reading the table store. *)
      { no_effect with db_read = const_str_arg i 0; taint_base = false }
  | Some _ | None ->
      (* Default model: data flows from inputs to output and accumulates in
         the receiver for builder/container-style APIs.  This is the paper's
         open-ended propagation — all statements touching tainted objects
         join the slice. *)
      {
        no_effect with
        taint_ret = any_input;
        taint_base = any_arg && i.Ir.ibase <> None;
      }

(** Privacy/QoE-relevant origination sources (§2: "if the app streams data
    from the microphone or camera, we might infer that the traffic is of
    high priority").  Returns a tag when the call's result originates from
    such a source. *)
let source_tag (i : Ir.invoke) : string option =
  match Api.model_of i with
  | Some Libmodel.(Location_lat | Location_lon) -> Some "gps"
  | Some _ | None -> None
