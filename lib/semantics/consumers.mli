(** Consumption sinks: where network-originated data ends up (§2 — media
    player, SQLite, UI, files). *)

module Ir = Extr_ir.Types

type sink =
  | Media_player
  | Database of string  (** table, when statically known *)
  | Ui_text
  | File_output

val find : Ir.invoke -> (sink * int list) option
(** The sink an invoke feeds, with the indices of the arguments that must
    be response-derived for the consumption to count. *)
