(** A small JSON value model with parser and printer.  Used for concrete
    request/response bodies in traffic traces and by the JSON signature
    matcher. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(** {1 Printing} *)

val escape_string : string -> string
(** JSON string-content escaping (no surrounding quotes). *)

val to_string : t -> string
(** Compact serialization. *)

val pp : Format.formatter -> t -> unit

(** {1 Parsing} *)

val of_string : string -> t
(** @raise Parse_error on malformed input or trailing garbage. *)

val of_string_opt : string -> t option

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field of an object; [None] for missing keys or non-objects. *)

val str_member : string -> t -> string option
val int_member : string -> t -> int option
val bool_member : string -> t -> bool option
val list_member : string -> t -> t list option
(** Typed {!member}s: [None] for a missing key or a value of another
    kind. *)

val num_member : string -> t -> float option
(** A [Float] member, or an [Int] one widened — integral floats print
    without a fraction and parse back as [Int]. *)

val find_path : string list -> t -> t option
(** Nested field lookup along a key path. *)

val all_keys : t -> string list
(** Keys appearing anywhere in the value, with duplicates. *)

val distinct_keys : t -> string list
(** Sorted, deduplicated keys (Figure-7 keyword counting). *)

val equal : t -> t -> bool
