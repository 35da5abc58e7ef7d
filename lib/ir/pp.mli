(** Textual Limple printer.

    The output is accepted by {!Parser}, so programs round-trip between
    in-memory and textual forms.  Method bodies declare every local with
    its type up front so the parser can reconstruct typed variables
    without inference.  String constants print as OCaml string literals
    ([Printf.sprintf "%S"]).  The program text is what the result cache's
    key digests, so its bytes are pinned: a change to them orphans every
    result cache on disk. *)

open Types

val add_program : Buffer.t -> program -> unit
(** Append a program's text: entry declarations first, then every class. *)

val program_to_string : program -> string
val stmt_to_string : stmt -> string
