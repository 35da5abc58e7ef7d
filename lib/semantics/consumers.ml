(* Consumption sinks: where network-originated data ends up (§2: "it is
   able to track how the network originated data is consumed within the
   Android app (e.g., network data is fed into a video player)").  A library
   call is a consumer when a tainted (response-derived) value reaches one of
   these APIs. *)

module Ir = Extr_ir.Types

type sink =
  | Media_player
  | Database of string  (** table, when statically known *)
  | Ui_text
  | File_output

(** Which arguments of the invoke flow into which sink.  Returns the sink
    and the indices of the arguments that must be tainted for the
    consumption to be response-derived ([None] index set means the receiver). *)
let find (i : Ir.invoke) : (sink * int list) option =
  let const_str idx =
    match List.nth_opt i.Ir.iargs idx with
    | Some (Ir.Const (Ir.Cstr s)) -> s
    | Some _ | None -> "*"
  in
  match Api.model_of i with
  | Some Libmodel.Media_source -> Some (Media_player, [ 0 ])
  | Some Libmodel.Db_write -> Some (Database (const_str 0), [ 1 ])
  | Some Libmodel.Set_text -> Some (Ui_text, [ 0 ])
  | Some Libmodel.Stream_write -> Some (File_output, [ 0 ])
  | Some _ | None -> None
