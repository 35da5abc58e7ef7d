(* Message-level signatures: what Extractocol outputs for each request and
   response (§1: signatures for URI, query string, request method, header,
   and body), plus matching of signatures against concrete traffic. *)

module Http = Extr_httpmodel.Http
module Uri = Extr_httpmodel.Uri
module Json = Extr_httpmodel.Json
module Xml = Extr_httpmodel.Xml

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

(** Where response data flows after parsing (§2: e.g. media player, file,
    SQLite database) — the "how network data is consumed" output. *)
type consumer =
  | To_media_player
  | To_database of string  (** table name *)
  | To_ui
  | To_file
  | To_heap  (** retained in fields for later requests *)

let consumer_to_string = function
  | To_media_player -> "media-player"
  | To_database t -> "database:" ^ t
  | To_ui -> "ui"
  | To_file -> "file"
  | To_heap -> "heap"

type response_sig = { ps_body : body_sig; ps_consumers : consumer list }

let body_sig_kind = function
  | Bnone -> "none"
  | Bquery _ -> "query"
  | Bjson _ -> "json"
  | Bxml _ -> "xml"
  | Btext _ -> "text"
  | Bopaque -> "opaque"

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

let pp_body_sig fmt = function
  | Bnone -> Fmt.string fmt "-"
  | Bquery kvs ->
      let pp_kv fmt (k, v) = Fmt.pf fmt "%s=%s" k (Strsig.to_regex v) in
      Fmt.pf fmt "%a" (Fmt.list ~sep:(Fmt.any "&") pp_kv) kvs
  | Bjson j -> Jsonsig.pp fmt j
  | Bxml x -> Xmlsig.pp fmt x
  | Btext s -> Fmt.string fmt (Strsig.to_regex s)
  | Bopaque -> Fmt.string fmt ".*"

let pp_request_sig fmt r =
  Fmt.pf fmt "%s %s" (Http.meth_to_string r.rs_meth) (Strsig.to_regex r.rs_uri);
  match r.rs_body with
  | Bnone -> ()
  | b -> Fmt.pf fmt " body: %a" pp_body_sig b

(* ------------------------------------------------------------------ *)
(* Matching against concrete traffic                                  *)
(* ------------------------------------------------------------------ *)

let body_matches (s : body_sig) (b : Http.body) =
  match (s, b) with
  | Bnone, Http.No_body -> true
  | Bnone, _ -> false
  | Bopaque, _ -> true
  | Bquery spec, Http.Query kvs ->
      List.for_all
        (fun (k, vs) ->
          match List.assoc_opt k kvs with
          | Some v -> Strsig.matches vs v
          | None -> false)
        spec
  | Bjson js, Http.Json v -> Jsonsig.admits js v
  | Bxml xs, Http.Xml e -> Xmlsig.admits xs e
  | Btext ts, Http.Text t -> Strsig.matches ts t
  | Btext ts, Http.Binary t -> Strsig.matches ts t
  | (Bquery _ | Bjson _ | Bxml _ | Btext _), _ -> false

(** Full request match: method equality, URI regex match (through the
    compiled regex engine, validating the emitted regex as in §5.1's
    "signature validity" check), headers, and body. *)
let request_matches (s : request_sig) (r : Http.request) =
  s.rs_meth = r.req_meth
  && (let uri_string = Uri.to_string r.req_uri in
      Regex.string_matches ~pattern:(Strsig.to_regex s.rs_uri) uri_string)
  && List.for_all
       (fun (name, vs) ->
         match Http.header name r.req_headers with
         | Some v -> Strsig.matches vs v
         | None -> false)
       s.rs_headers
  && body_matches s.rs_body r.req_body

(* ------------------------------------------------------------------ *)
(* Keyword extraction (Figure 7)                                      *)
(* ------------------------------------------------------------------ *)

(** Constant keywords of a body signature: query-string keys, JSON keys,
    XML tags/attributes. *)
let body_keywords = function
  | Bnone | Bopaque -> []
  | Bquery kvs -> List.map fst kvs
  | Bjson j -> Jsonsig.distinct_keys j
  | Bxml x -> Xmlsig.distinct_keywords x
  | Btext s -> Strsig.keywords s

(** Keywords contributed by the query-string portion of the URI signature:
    keys of [k=v] pairs appearing in literal fragments after '?'. *)
let uri_query_keywords (uri_sig : Strsig.t) =
  let lits = Strsig.literals uri_sig in
  let full = String.concat "\x00" lits in
  match String.index_opt full '?' with
  | None -> []
  | Some i ->
      let qs = String.sub full (i + 1) (String.length full - i - 1) in
      String.split_on_char '&' qs
      |> List.concat_map (fun kv ->
             match String.index_opt kv '=' with
             | Some j when j > 0 -> [ String.sub kv 0 j ]
             | Some _ | None -> [])
      |> List.filter (fun k -> k <> "" && not (String.contains k '\x00'))
      |> List.sort_uniq String.compare

let request_body_keywords (s : request_sig) =
  List.sort_uniq String.compare (body_keywords s.rs_body @ uri_query_keywords s.rs_uri)

(* ------------------------------------------------------------------ *)
(* Byte accounting (Table 2)                                          *)
(* ------------------------------------------------------------------ *)

(** Account the bytes of a concrete body against a body signature:
    returns [(r_k, r_v, r_n)]. *)
let body_byte_account (s : body_sig) (b : Http.body) =
  let total body = String.length (Http.body_to_string body) in
  match (s, b) with
  | Bjson js, Http.Json v -> Jsonsig.byte_account js v
  | Bxml xs, Http.Xml e -> Xmlsig.byte_account xs e
  | Bquery spec, Http.Query kvs ->
      let bk = ref 0 and bv = ref 0 and bn = ref 0 in
      List.iteri
        (fun i (k, v) ->
          let sep = if i > 0 then 1 else 0 in
          let v_enc = Uri.percent_encode v in
          match List.assoc_opt k spec with
          | Some vs -> (
              bk := !bk + sep + String.length k + 1;
              match Strsig.byte_counts vs v_enc with
              | Some (c, w) ->
                  bk := !bk + c;
                  bv := !bv + w
              | None -> bv := !bv + String.length v_enc)
          | None -> bn := !bn + sep + String.length k + 1 + String.length v_enc)
        kvs;
      (!bk, !bv, !bn)
  | Btext ts, (Http.Text t | Http.Binary t) -> (
      match Strsig.byte_counts ts t with
      | Some (c, w) -> (c, w, 0)
      | None -> (0, 0, String.length t))
  | (Bnone | Bopaque), b -> (0, 0, total b)
  | (Bquery _ | Bjson _ | Bxml _ | Btext _), b -> (0, 0, total b)
