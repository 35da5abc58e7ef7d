(** Message-level signatures: what Extractocol outputs for each request
    and response (§1: signatures for URI, query string, request method,
    header, and body), plus matching of signatures against concrete
    traffic. *)

module Http = Extr_httpmodel.Http
module Uri = Extr_httpmodel.Uri

(** Body signatures for both directions. *)
type body_sig =
  | Bnone
  | Bquery of (string * Strsig.t) list  (** form/query-string body *)
  | Bjson of Jsonsig.t
  | Bxml of Xmlsig.t
  | Btext of Strsig.t
  | Bopaque  (** body exists but the slice reveals nothing about it *)

type request_sig = {
  rs_meth : Http.meth;
  rs_uri : Strsig.t;  (** full URI signature, query string included *)
  rs_headers : (string * Strsig.t) list;  (** app-set headers, e.g. User-Agent *)
  rs_body : body_sig;
}

(** Where response data flows after parsing (§2: media player, SQLite,
    UI, files, or retained in the heap for later requests). *)
type consumer =
  | To_media_player
  | To_database of string  (** table name *)
  | To_ui
  | To_file
  | To_heap

val consumer_to_string : consumer -> string

type response_sig = { ps_body : body_sig; ps_consumers : consumer list }

val body_sig_kind : body_sig -> string

(** {1 Printing} *)

val pp_body_sig : Format.formatter -> body_sig -> unit
val pp_request_sig : Format.formatter -> request_sig -> unit

(** {1 Matching against concrete traffic (§5.1 signature validity)} *)

val body_matches : body_sig -> Http.body -> bool

val request_matches : request_sig -> Http.request -> bool
(** Full request match: method equality, URI match through the compiled
    regex engine, required headers, and body. *)

(** {1 Keyword extraction (Figure 7)} *)

val body_keywords : body_sig -> string list
(** Query-string keys, JSON keys, or XML tags/attributes of a body
    signature. *)

val uri_query_keywords : Strsig.t -> string list
(** Keys of [k=v] pairs appearing in the query-string portion of a URI
    signature's literals. *)

val request_body_keywords : request_sig -> string list
(** Body keywords plus URI query keys, deduplicated. *)

(** {1 Byte accounting (Table 2)} *)

val body_byte_account : body_sig -> Http.body -> int * int * int
(** [(r_k, r_v, r_n)] for a concrete body against a body signature. *)
