(* Semantic models of library APIs over abstract values (§3.2).  Each
   modelled call is interpreted on the signature domain: StringBuilder
   appends concatenate signatures, JSON puts grow builder trees, HTTP
   request constructors collect URIs/headers/bodies, demarcation points
   finalize transactions, and response accessors record which body parts
   the app parses.  All object state goes through the interpreter's
   current-path heap ([cx_heap]). *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog
module Api = Extr_semantics.Api
module Libmodel = Extr_semantics.Libmodel
module Callbacks = Extr_semantics.Callbacks
module Strsig = Extr_siglang.Strsig
module Jsonsig = Extr_siglang.Jsonsig
module Msgsig = Extr_siglang.Msgsig
module Http = Extr_httpmodel.Http
module Uri = Extr_httpmodel.Uri
module Provenance = Extr_provenance.Provenance
open Absval

type ctx = {
  cx_prog : Prog.t;
  cx_heap : heap ref;  (** the current execution path's heap *)
  cx_sid : Ir.stmt_id;  (** the statement being modelled (for provenance) *)
  cx_resources : int -> string option;
  cx_new_tx : dp:Ir.stmt_id -> Txn.t;
  cx_tx : int -> Txn.t option;
  cx_db : (string, prov list) Hashtbl.t;  (** SQLite table → stored provenance *)
  cx_run_callback : Ir.method_id -> Absval.t option -> Absval.t list -> Absval.t;
  cx_register : Callbacks.event -> Absval.t -> unit;
      (** record a listener registration so the interpreter later fires
          the event's callback with the same receiver heap state *)
  cx_intents : bool;
      (** resolve intent-service dispatch (extension; off reproduces the
          paper's §4 limitation) *)
}

let arg n args = List.nth_opt args n
let arg_or_top n args = Option.value (arg n args) ~default:Vtop

(* ------------------------------------------------------------------ *)
(* Request finalization                                               *)
(* ------------------------------------------------------------------ *)

let meth_of_cls cls =
  if cls = Api.http_get then Http.GET
  else if cls = Api.http_post then Http.POST
  else if cls = Api.http_put then Http.PUT
  else if cls = Api.http_delete then Http.DELETE
  else Http.GET

(** Derive a query-style body signature from a string signature shaped like
    [k=v&k2=v2...]; [None] when the shape does not hold. *)
let query_body_of_sig (sg : Strsig.t) : (string * Strsig.t) list option =
  let rec render = function
    | Strsig.Lit s -> Some s
    | Strsig.Unknown _ -> Some "\x01"
    | Strsig.Concat ps ->
        List.fold_left
          (fun acc p ->
            match (acc, render p) with
            | Some a, Some b -> Some (a ^ b)
            | _, _ -> None)
          (Some "") ps
    | Strsig.Alt _ | Strsig.Rep _ -> None
  in
  match render sg with
  | None -> None
  | Some template ->
      if not (String.contains template '=') then None
      else begin
        let pairs =
          String.split_on_char '&' template
          |> List.filter (fun s -> s <> "")
          |> List.map (fun kv ->
                 match String.index_opt kv '=' with
                 | None -> (kv, Strsig.lit "")
                 | Some i ->
                     let k = String.sub kv 0 i in
                     let v = String.sub kv (i + 1) (String.length kv - i - 1) in
                     let vsig =
                       let parts =
                         String.split_on_char '\x01' v
                         |> List.map (fun lit -> Strsig.lit lit)
                       in
                       let rec weave = function
                         | [] -> []
                         | [ last ] -> [ last ]
                         | p :: rest -> p :: Strsig.unknown :: weave rest
                       in
                       Strsig.concat (weave parts)
                     in
                     (k, vsig))
        in
        if
          List.for_all
            (fun (k, _) -> k <> "" && not (String.contains k '\x01'))
            pairs
        then Some pairs
        else None
      end

(** Body signature of an entity/body abstract value, plus per-key
    provenance for dependency recording. *)
let body_of_value ctx (v : Absval.t) : Msgsig.body_sig * (string * prov list) list =
  let href = ctx.cx_heap in
  let of_strinfo (si : strinfo) =
    match si.structured with
    | Some js -> (Msgsig.Bjson js, si.kprov)
    | None -> (
        match query_body_of_sig si.sg with
        | Some pairs ->
            (Msgsig.Bquery pairs, List.map (fun (k, _) -> (k, si.prov)) pairs)
        | None -> (Msgsig.Btext si.sg, [ ("*", si.prov) ]))
  in
  match v with
  | Vnull | Vtop -> (Msgsig.Bnone, [])
  | Vobj o when o.o_cls = Api.string_entity || o.o_cls = Api.okhttp_body -> (
      match hslot href o "content" with
      | Some (Vstr si) -> of_strinfo si
      | Some other -> of_strinfo (strinfo_of other)
      | None -> (Msgsig.Bopaque, []))
  | Vobj o when o.o_cls = Api.form_entity -> (
      match hslot href o "params" with
      | Some (Vlist items) ->
          let pairs =
            List.filter_map
              (function
                | Vobj p when p.o_cls = Api.name_value_pair -> (
                    match (hslot href p "k", hslot href p "v") with
                    | Some (Vstr { sg = Strsig.Lit k; _ }), Some v ->
                        let vi = strinfo_of v in
                        Some ((k, vi.sg), (k, vi.prov))
                    | Some kv, Some v ->
                        let ki = strinfo_of kv and vi = strinfo_of v in
                        Some
                          ( (Strsig.to_regex ki.sg, vi.sg),
                            (Strsig.to_regex ki.sg, vi.prov) )
                    | _, _ -> None)
                | _ -> None)
              items
          in
          (Msgsig.Bquery (List.map fst pairs), List.map snd pairs)
      | Some _ | None -> (Msgsig.Bopaque, []))
  | Vstr si -> of_strinfo si
  | Vobj _ | Vlist _ | Vpair _ | Vbool _ | Vint _ | Vcursor _ -> (Msgsig.Bopaque, [])

let record_deps (tx : Txn.t) ~field (prov : prov list) =
  List.iter
    (fun p ->
      Txn.add_dep tx
        {
          Txn.dep_from_tx = p.p_tx;
          dep_from_path = p.p_path;
          dep_to_field = field;
          dep_via = p.p_via;
        };
      (* Evidence chain: why this dependency edge was drawn (§3.3). *)
      if Provenance.is_enabled Provenance.default then
        Provenance.record_dep Provenance.default ~tx:tx.Txn.tx_id
          ~from_tx:p.p_tx ~to_field:field
          ~reason:
            (match p.p_via with
            | Some table -> "db-mediated via " ^ table
            | None -> "response-value heap flow"))
    prov

(** Finalize a transaction from a request object at a demarcation point. *)
let finalize ctx ~dp (reqval : Absval.t) : Txn.t =
  let href = ctx.cx_heap in
  let tx = ctx.cx_new_tx ~dp in
  (* Evidence chain: every signature fragment names the demarcation-point
     statement it was finalized at and the rule that produced it. *)
  let frag part rule =
    if Provenance.is_enabled Provenance.default then
      Provenance.record_fragment Provenance.default ~tx:tx.Txn.tx_id ~part
        ~rule ~stmt:dp
  in
  let set_uri (si : strinfo) =
    tx.Txn.tx_uri <- si.sg;
    tx.Txn.tx_srcs <- List.sort_uniq String.compare (tx.Txn.tx_srcs @ si.srcs);
    if si.prov <> [] then tx.Txn.tx_dynamic_uri <- true;
    frag "uri" "finalize.uri";
    record_deps tx ~field:"uri" si.prov
  in
  let set_headers headers =
    List.iter
      (function
        | Vpair (k, v) ->
            let ki = strinfo_of k and vi = strinfo_of v in
            let name =
              match ki.sg with Strsig.Lit s -> s | _ -> Strsig.to_regex ki.sg
            in
            tx.Txn.tx_headers <- tx.Txn.tx_headers @ [ (name, vi.sg) ];
            frag ("header:" ^ name) "finalize.header";
            record_deps tx ~field:("header:" ^ name) vi.prov
        | _ -> ())
      headers
  in
  let set_body v =
    let body, kprov = body_of_value ctx v in
    tx.Txn.tx_body <- body;
    (match body with Msgsig.Bnone -> () | _ -> frag "body" "finalize.body");
    tx.Txn.tx_srcs <-
      List.sort_uniq String.compare (tx.Txn.tx_srcs @ collect_srcs !href v);
    List.iter
      (fun (k, prov) ->
        let field =
          match body with
          | Msgsig.Bquery _ -> "query:" ^ k
          | Msgsig.Bjson _ -> "body:" ^ k
          | Msgsig.Bnone | Msgsig.Bxml _ | Msgsig.Btext _ | Msgsig.Bopaque ->
              "body"
        in
        record_deps tx ~field prov)
      kprov
  in
  let finalize_obj (o : obj) =
    (match hslot href o "meth" with
    | Some (Vstr { sg = Strsig.Lit m; _ }) ->
        tx.Txn.tx_meth <- Option.value (Http.meth_of_string m) ~default:Http.GET
    | Some _ | None -> tx.Txn.tx_meth <- meth_of_cls o.o_cls);
    frag "method" "finalize.method";
    (match hslot href o "uri" with Some u -> set_uri (strinfo_of u) | None -> ());
    (match hslot href o "headers" with
    | Some (Vlist hs) -> set_headers hs
    | Some _ | None -> ());
    match (hslot href o "entity", hslot href o "body") with
    | Some e, _ -> set_body e
    | None, Some b -> set_body b
    | None, None -> ()
  in
  (match reqval with
  | Vobj o when o.o_cls = Api.okhttp_call -> (
      match hslot href o "req" with
      | Some (Vobj r) -> finalize_obj r
      | Some v -> set_uri (strinfo_of v)
      | None -> ())
  | Vobj o -> finalize_obj o
  | v -> set_uri (strinfo_of v));
  tx

(* ------------------------------------------------------------------ *)
(* Response cursors                                                   *)
(* ------------------------------------------------------------------ *)

let cursor_child cu step = { cu_tx = cu.cu_tx; cu_path = cu.cu_path @ [ step ] }

(* Evidence chain: every recorded response access names the reading
   statement ([cx_sid]) and the accessor rule that modelled it. *)
let frag_access ctx cu rule =
  if Provenance.is_enabled Provenance.default then
    Provenance.record_fragment Provenance.default ~tx:cu.cu_tx
      ~part:("response:" ^ String.concat "." (path_of_steps cu.cu_path))
      ~rule ~stmt:ctx.cx_sid

let record_leaf ctx cu kind =
  match ctx.cx_tx cu.cu_tx with
  | Some tx ->
      frag_access ctx cu "response-leaf";
      Respacc.record_leaf tx.Txn.tx_resp cu kind
  | None -> ()

let record_nav ctx cu =
  match ctx.cx_tx cu.cu_tx with
  | Some tx ->
      frag_access ctx cu "response-nav";
      Respacc.record_nav tx.Txn.tx_resp cu
  | None -> ()

let set_resp_kind ctx txid kind =
  match ctx.cx_tx txid with
  | Some tx -> Respacc.set_kind tx.Txn.tx_resp kind
  | None -> ()

let str_of_cursor cu =
  Vstr
    {
      sg = Strsig.unknown;
      prov = [ prov_of_cursor cu ];
      srcs = [];
      structured = None;
      kprov = [];
    }

(** Leaf read through a cursor: record the access, return a provenance-
    carrying unknown. *)
let cursor_leaf ctx cu step kind ret_of =
  let cu' = cursor_child cu step in
  record_leaf ctx cu' kind;
  ret_of cu'

(** When a string is a response body (or subtree), parsing it re-opens a
    cursor at that position. *)
let cursor_of_strinfo (si : strinfo) : cursor option =
  match si.prov with
  | [ p ] ->
      let steps =
        List.map
          (fun seg ->
            if seg = "[]" then Sindex
            else if seg = "#text" then Stext
            else if String.length seg > 0 && seg.[0] = '@' then
              Sattr (String.sub seg 1 (String.length seg - 1))
            else Sfield seg)
          p.p_path
      in
      Some { cu_tx = p.p_tx; cu_path = steps }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Raw-socket HTTP (the §4 extension)                                  *)
(* ------------------------------------------------------------------ *)

(** Parse an abstract HTTP wire template ("GET /path HTTP/1.1\r\n...")
    into (method, path signature): the socket-API extension reuses the
    text-protocol machinery the signature builder already has. *)
let parse_http_wire (wire : Strsig.t) : (Http.meth * Strsig.t) option =
  let parts = match wire with Strsig.Concat ps -> ps | s -> [ s ] in
  match parts with
  | Strsig.Lit first :: rest -> (
      let meth_of prefix m =
        let pl = String.length prefix in
        if String.length first >= pl && String.sub first 0 pl = prefix then
          Some (m, String.sub first pl (String.length first - pl))
        else None
      in
      let meth =
        List.find_map
          (fun (p, m) -> meth_of p m)
          [
            ("GET ", Http.GET); ("POST ", Http.POST); ("PUT ", Http.PUT);
            ("DELETE ", Http.DELETE);
          ]
      in
      match meth with
      | None -> None
      | Some (m, first_rest) ->
          (* Collect path parts up to the " HTTP/" marker. *)
          let cut lit =
            let marker = " HTTP/" in
            let ml = String.length marker in
            let rec find i =
              if i + ml > String.length lit then None
              else if String.sub lit i ml = marker then Some (String.sub lit 0 i)
              else find (i + 1)
            in
            find 0
          in
          let rec collect acc = function
            | [] -> Some (List.rev acc)
            | Strsig.Lit l :: _ when cut l <> None ->
                Some (List.rev (Strsig.Lit (Option.get (cut l)) :: acc))
            | p :: rest -> collect (p :: acc) rest
          in
          let path_parts =
            match cut first_rest with
            | Some path -> Some [ Strsig.Lit path ]
            | None -> collect [ Strsig.Lit first_rest ] rest
          in
          Option.map (fun ps -> (m, Strsig.concat ps)) path_parts)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The main dispatch                                                  *)
(* ------------------------------------------------------------------ *)

(* [String.trim] on a signature: exact on a literal, and the identity when
   no literal part holds a character trim strips — whitespace at either
   end then comes from unknown parts, which still match once it is cut.
   Unknown otherwise. *)
let trim_sig = function
  | Strsig.Lit s -> Strsig.lit (String.trim s)
  | sg ->
      let strips c = c = ' ' || c = '\t' || c = '\n' || c = '\012' || c = '\r' in
      if List.exists (String.exists strips) (Strsig.literals sg) then Strsig.unknown
      else sg

(** Interpret a library call abstractly under its model [m].  [sid] is the
    statement id (the transaction anchor for demarcation points).  Returns
    [None] for the models the abstract semantics leaves to the caller (it
    falls back to [Vtop]). *)
let call ctx ~(sid : Ir.stmt_id) (m : Api.model) (i : Ir.invoke)
    ~(base : Absval.t option) ~(args : Absval.t list) : Absval.t option =
  let href = ctx.cx_heap in
  let slot o n = hslot href o n in
  let set o n v = hset href o n v in
  let alloc cls = halloc href cls in
  let name = i.Ir.iref.Ir.mname in
  let base_obj = match base with Some (Vobj o) -> Some o | _ -> None in
  let some v = Some v in
  (* Append a (name, value) pair to a list slot of the receiver. *)
  let push_pair field =
    match base_obj with
    | Some o ->
        let l = match slot o field with Some (Vlist l) -> l | _ -> [] in
        set o field (Vlist (l @ [ Vpair (arg_or_top 0 args, arg_or_top 1 args) ]))
    | None -> ()
  in
  match m with
  (* -------------------- StringBuilder -------------------- *)
  | Sb_init ->
      (match base_obj with
      | Some o ->
          set o "sig"
            (match arg 0 args with
            | Some v -> Vstr (strinfo_of v)
            | None -> str_lit "")
      | None -> ());
      some Vnull
  | Sb_append -> (
      match base_obj with
      | Some o ->
          let cur = Option.value (slot o "sig") ~default:(str_lit "") in
          set o "sig" (str_concat cur (arg_or_top 0 args));
          some (Vobj o)
      | None -> some Vtop)
  | Sb_to_string ->
      some
        (match base_obj with
        | Some o -> Option.value (slot o "sig") ~default:str_unknown
        | None -> str_unknown)
  (* -------------------- String / numbers -------------------- *)
  | Str_value_of | Int_to_string -> some (Vstr (strinfo_of (arg_or_top 0 args)))
  | Str_concat -> some (str_concat (Option.value base ~default:Vtop) (arg_or_top 0 args))
  | Str_trim ->
      some
        (match base with
        | Some (Vstr si) -> Vstr { si with sg = trim_sig si.sg }
        | Some v -> v
        | None -> str_unknown)
  | Str_equals -> some (Vbool None)
  | Str_length | Int_parse -> some (Vint None)
  | Url_encode ->
      let si = strinfo_of (arg_or_top 0 args) in
      let sg =
        match si.sg with
        | Strsig.Lit s -> Strsig.lit (Uri.percent_encode s)
        | Strsig.Unknown _ | Strsig.Concat _ | Strsig.Alt _ | Strsig.Rep _ ->
            Strsig.unknown
      in
      some (Vstr { si with sg })
  (* -------------------- Android resources / views ------------------ *)
  | Res_string -> (
      match arg 0 args with
      | Some (Vint (Some id)) -> (
          match ctx.cx_resources id with
          | Some s -> some (str_lit s)
          | None -> some str_unknown)
      | Some _ | None -> some str_unknown)
  | Get_resources -> some (Vobj (alloc Api.resources))
  | Find_view -> some (Vobj (alloc Api.view))
  | Edit_text_get -> some str_unknown
  | Intent_init ->
      (* Android intents are out of scope for Extractocol (§4); with
         [cx_intents] the constant-action case is resolved anyway (an
         extension mirroring the reflection treatment). *)
      (if ctx.cx_intents then
         match base_obj with
         | Some o -> set o "action" (arg_or_top 0 args)
         | None -> ());
      some Vnull
  | Intent_put ->
      (if ctx.cx_intents then
         match (base_obj, arg 0 args) with
         | Some o, Some (Vstr { sg = Strsig.Lit key; _ }) ->
             set o ("x:" ^ key) (arg_or_top 1 args)
         | (Some _ | None), _ -> ());
      some Vnull
  | Intent_get -> (
      match (base_obj, arg 0 args) with
      | Some o, Some (Vstr { sg = Strsig.Lit key; _ }) ->
          some (Option.value (slot o ("x:" ^ key)) ~default:str_unknown)
      | (Some _ | None), _ -> some str_unknown)
  | Start_service ->
      (if ctx.cx_intents then
         match arg 0 args with
         | Some (Vobj it) -> (
             match slot it "action" with
             | Some (Vstr { sg = Strsig.Lit action; _ }) ->
                 let svc = alloc action in
                 (match base with
                 | Some act -> set svc "act" act
                 | None -> ());
                 ignore
                   (ctx.cx_run_callback
                      { Ir.id_cls = action; id_name = Callbacks.on_handle_intent }
                      (Some (Vobj svc))
                      [ Vobj it ])
             | Some _ | None -> ())
         | Some _ | None -> ());
      some Vnull
  | Log | Noop -> some Vnull
  (* Runtime-only models: the interpreter chains AsyncTask itself, and
     these constructors stay at top. *)
  | Async_execute | Framework_init -> None
  (* -------------------- reflection -------------------- *)
  | Class_for_name ->
      (* Resolvable only for constant class names — the standard static-
         analysis treatment of reflection. *)
      let o = alloc Api.java_class in
      set o "name" (arg_or_top 0 args);
      some (Vobj o)
  | New_instance -> (
      match Option.bind base_obj (fun o -> slot o "name") with
      | Some (Vstr { sg = Strsig.Lit cls; _ }) ->
          let o = alloc cls in
          ignore
            (ctx.cx_run_callback
               { Ir.id_cls = cls; id_name = "<init>" }
               (Some (Vobj o)) []);
          some (Vobj o)
      | Some _ | None -> some Vtop)
  | Get_method ->
      let mo = alloc Api.reflect_method in
      (match Option.bind base_obj (fun o -> slot o "name") with
      | Some v -> set mo "cls" v
      | None -> ());
      set mo "mname" (arg_or_top 0 args);
      some (Vobj mo)
  | Method_invoke -> (
      match
        ( Option.bind base_obj (fun o -> slot o "cls"),
          Option.bind base_obj (fun o -> slot o "mname") )
      with
      | ( Some (Vstr { sg = Strsig.Lit cls; _ }),
          Some (Vstr { sg = Strsig.Lit mname; _ }) ) ->
          let this = arg 0 args in
          let rest = match args with [] -> [] | _ :: r -> r in
          some
            (ctx.cx_run_callback { Ir.id_cls = cls; id_name = mname } this rest)
      | _, _ -> some Vtop)
  (* -------------------- containers -------------------- *)
  | List_init ->
      (match base_obj with Some o -> set o "items" (Vlist []) | None -> ());
      some Vnull
  | List_add ->
      (match base_obj with
      | Some o ->
          let items = match slot o "items" with Some (Vlist l) -> l | _ -> [] in
          set o "items" (Vlist (items @ [ arg_or_top 0 args ]))
      | None -> ());
      some (Vbool (Some true))
  | List_get -> (
      match base_obj with
      | Some o -> (
          match (slot o "items", arg 0 args) with
          | Some (Vlist l), Some (Vint (Some n)) when n >= 0 && n < List.length l ->
              some (List.nth l n)
          | Some (Vlist (x :: rest)), _ ->
              some
                (List.fold_left
                   (fun acc y ->
                     merge_val
                       ~combine_sig:(fun a b -> Strsig.alt [ a; b ])
                       !href !href href acc y)
                   x rest)
          | _, _ -> some Vtop)
      | None -> some Vtop)
  | List_size -> (
      match base_obj with
      | Some o -> (
          match slot o "items" with
          | Some (Vlist l) -> some (Vint (Some (List.length l)))
          | _ -> some (Vint None))
      | None -> some (Vint None))
  | Map_init ->
      (match base_obj with Some o -> set o "pairs" (Vlist []) | None -> ());
      some Vnull
  | Map_put ->
      push_pair "pairs";
      some Vnull
  | Map_get -> (
      match (base_obj, arg 0 args) with
      | Some o, Some (Vstr { sg = Strsig.Lit key; _ }) -> (
          let pairs = match slot o "pairs" with Some (Vlist l) -> l | _ -> [] in
          let found =
            List.find_map
              (function
                | Vpair (Vstr { sg = Strsig.Lit k; _ }, v) when k = key -> Some v
                | _ -> None)
              pairs
          in
          match found with Some v -> some v | None -> some Vnull)
      | _, _ -> some Vtop)
  (* -------------------- org.apache.http request objects ------------ *)
  | Request_init ->
      (match base_obj with
      | Some o -> (
          set o "headers" (Vlist []);
          match arg 0 args with Some u -> set o "uri" u | None -> ())
      | None -> ());
      some Vnull
  | Add_header ->
      push_pair "headers";
      some Vnull
  | Set_entity ->
      (match base_obj with Some o -> set o "entity" (arg_or_top 0 args) | None -> ());
      some Vnull
  | String_entity_init ->
      (match base_obj with
      | Some o -> set o "content" (Vstr (strinfo_of (arg_or_top 0 args)))
      | None -> ());
      some Vnull
  | Form_entity_init ->
      (match (base_obj, arg 0 args) with
      | Some o, Some (Vobj l) ->
          set o "params" (Option.value (slot l "items") ~default:(Vlist []))
      | Some o, _ -> set o "params" (Vlist [])
      | None, _ -> ());
      some Vnull
  | Pair_init ->
      (match base_obj with
      | Some o ->
          set o "k" (arg_or_top 0 args);
          set o "v" (arg_or_top 1 args)
      | None -> ());
      some Vnull
  (* -------------------- demarcation: apache execute ---------------- *)
  | Apache_execute ->
      let tx = finalize ctx ~dp:sid (arg_or_top 0 args) in
      let resp = alloc Api.http_response in
      set resp "tx" (Vint (Some tx.Txn.tx_id));
      some (Vobj resp)
  | Get_entity -> (
      match base_obj with
      | Some o ->
          let e = alloc Api.http_entity in
          (match slot o "tx" with Some t -> set e "tx" t | None -> ());
          some (Vobj e)
      | None -> some Vtop)
  | Get_content -> (
      match base_obj with
      | Some o ->
          let s = alloc Api.input_stream in
          (match slot o "tx" with Some t -> set s "tx" t | None -> ());
          some (Vobj s)
      | None -> some Vtop)
  | Read_stream -> (
      match arg 0 args with
      | Some (Vobj o) -> (
          match slot o "tx" with
          | Some (Vint (Some txid)) ->
              set_resp_kind ctx txid Respacc.Bk_text;
              some (str_of_cursor { cu_tx = txid; cu_path = [] })
          | _ -> some str_unknown)
      | _ -> some str_unknown)
  (* -------------------- java.net.URL / HttpURLConnection ----------- *)
  | Url_init ->
      (match base_obj with Some o -> set o "uri" (arg_or_top 0 args) | None -> ());
      some Vnull
  | Open_connection ->
      let conn = alloc Api.http_url_connection in
      (match base_obj with
      | Some o -> (
          match slot o "uri" with Some u -> set conn "uri" u | None -> ())
      | None -> ());
      set conn "meth" (str_lit "GET");
      set conn "headers" (Vlist []);
      some (Vobj conn)
  | Set_method ->
      (match base_obj with Some o -> set o "meth" (arg_or_top 0 args) | None -> ());
      some Vnull
  | Conn_output -> (
      match base_obj with
      | Some o ->
          let os = alloc Api.output_stream in
          set os "conn" (Vobj o);
          some (Vobj os)
      | None -> some Vtop)
  | Stream_write ->
      (match base_obj with
      | Some o -> (
          match (slot o "conn", slot o "sock") with
          | Some (Vobj conn), _ -> set conn "body" (arg_or_top 0 args)
          | _, Some (Vobj sock) ->
              (* Raw-socket writes accumulate the HTTP wire text. *)
              let cur = Option.value (slot sock "wire") ~default:(str_lit "") in
              set sock "wire" (str_concat cur (arg_or_top 0 args))
          | _, _ -> ())
      | None -> ());
      some Vnull
  | Conn_input | Conn_code -> (
      match base_obj with
      | Some conn ->
          (* One transaction per connection object: reuse if finalized. *)
          let txid =
            match slot conn "tx" with
            | Some (Vint (Some id)) -> id
            | _ ->
                let tx = finalize ctx ~dp:sid (Vobj conn) in
                set conn "tx" (Vint (Some tx.Txn.tx_id));
                tx.Txn.tx_id
          in
          if m = Libmodel.Conn_code then some (Vint None)
          else begin
            let s = alloc Api.input_stream in
            set s "tx" (Vint (Some txid));
            some (Vobj s)
          end
      | None -> some Vtop)
  (* -------------------- raw sockets (§4 extension) ----------------- *)
  | Socket_init ->
      (match base_obj with
      | Some o -> (
          set o "host" (arg_or_top 0 args);
          match arg 1 args with Some p -> set o "port" p | None -> ())
      | None -> ());
      some Vnull
  | Socket_output -> (
      match base_obj with
      | Some o ->
          let os = alloc Api.output_stream in
          set os "sock" (Vobj o);
          some (Vobj os)
      | None -> some Vtop)
  | Socket_input -> (
      match base_obj with
      | Some sock ->
          let txid =
            match slot sock "tx" with
            | Some (Vint (Some id)) -> id
            | _ ->
                let tx = ctx.cx_new_tx ~dp:sid in
                let wire =
                  match slot sock "wire" with
                  | Some v -> strinfo_of v
                  | None -> strinfo_of Vtop
                in
                let wire_frag part =
                  if Provenance.is_enabled Provenance.default then
                    Provenance.record_fragment Provenance.default
                      ~tx:tx.Txn.tx_id ~part ~rule:"socket-wire" ~stmt:sid
                in
                wire_frag "uri";
                (match parse_http_wire wire.sg with
                | Some (meth, path_sig) ->
                    wire_frag "method";
                    tx.Txn.tx_meth <- meth;
                    let host =
                      match slot sock "host" with
                      | Some v -> (strinfo_of v).sg
                      | None -> Strsig.unknown
                    in
                    tx.Txn.tx_uri <-
                      Strsig.concat [ Strsig.lit "http://"; host; path_sig ]
                | None -> tx.Txn.tx_uri <- Strsig.unknown);
                if wire.prov <> [] then begin
                  tx.Txn.tx_dynamic_uri <- true;
                  record_deps tx ~field:"uri" wire.prov
                end;
                set sock "tx" (Vint (Some tx.Txn.tx_id));
                tx.Txn.tx_id
          in
          let s = alloc Api.input_stream in
          set s "tx" (Vint (Some txid));
          some (Vobj s)
      | None -> some Vtop)
  (* -------------------- volley -------------------- *)
  | Volley_request_init ->
      (match base_obj with
      | Some o ->
          set o "meth" (arg_or_top 0 args);
          set o "uri" (arg_or_top 1 args);
          set o "listener" (arg_or_top 2 args)
      | None -> ());
      some Vnull
  | Volley_add ->
      let reqval = arg_or_top 0 args in
      let tx = finalize ctx ~dp:sid reqval in
      (* Deliver the response to the listener callback. *)
      (match reqval with
      | Vobj o -> (
          match slot o "listener" with
          | Some (Vobj l) ->
              let cb = { Ir.id_cls = l.o_cls; id_name = Callbacks.on_response } in
              (* Delivery alone is not processing: the body kind upgrades
                 only when the callback actually reads the payload. *)
              ignore
                (ctx.cx_run_callback cb (Some (Vobj l))
                   [ str_of_cursor { cu_tx = tx.Txn.tx_id; cu_path = [] } ])
          | _ -> ())
      | _ -> ());
      some Vnull
  (* -------------------- okhttp -------------------- *)
  | Ok_builder_init ->
      (match base_obj with
      | Some o ->
          set o "meth" (str_lit "GET");
          set o "headers" (Vlist [])
      | None -> ());
      some Vnull
  | Ok_url ->
      (match base_obj with Some o -> set o "uri" (arg_or_top 0 args) | None -> ());
      some (Option.value base ~default:Vtop)
  | Ok_header ->
      push_pair "headers";
      some (Option.value base ~default:Vtop)
  | Ok_method ->
      (match base_obj with
      | Some o ->
          set o "meth" (str_lit (String.uppercase_ascii name));
          set o "body" (arg_or_top 0 args)
      | None -> ());
      some (Option.value base ~default:Vtop)
  | Ok_body_create ->
      let o = alloc Api.okhttp_body in
      set o "content" (Vstr (strinfo_of (arg_or_top 0 args)));
      some (Vobj o)
  | Ok_build -> (
      match base_obj with
      | Some o ->
          let r = alloc Api.okhttp_request in
          SMap.iter (fun k v -> set r k v) (obj_slots !href o);
          some (Vobj r)
      | None -> some Vtop)
  | Ok_new_call ->
      let c = alloc Api.okhttp_call in
      set c "req" (arg_or_top 0 args);
      some (Vobj c)
  | Ok_execute -> (
      match base_obj with
      | Some o ->
          let tx = finalize ctx ~dp:sid (Vobj o) in
          let resp = alloc Api.okhttp_response in
          set resp "tx" (Vint (Some tx.Txn.tx_id));
          some (Vobj resp)
      | None -> some Vtop)
  | Ok_response_body -> (
      match base_obj with
      | Some o ->
          let b = alloc Api.okhttp_response_body in
          (match slot o "tx" with Some t -> set b "tx" t | None -> ());
          some (Vobj b)
      | None -> some Vtop)
  | Ok_body_string -> (
      match base_obj with
      | Some o -> (
          match slot o "tx" with
          | Some (Vint (Some txid)) ->
              set_resp_kind ctx txid Respacc.Bk_text;
              some (str_of_cursor { cu_tx = txid; cu_path = [] })
          | _ -> some str_unknown)
      | None -> some str_unknown)
  (* -------------------- media player (DP) -------------------- *)
  | Media_source ->
      let tx = finalize ctx ~dp:sid (arg_or_top 0 args) in
      Respacc.force_kind tx.Txn.tx_resp Respacc.Bk_opaque;
      Txn.add_consumer tx Msgsig.To_media_player;
      some Vnull
  (* -------------------- JSON -------------------- *)
  | Json_obj_init ->
      (match (base_obj, arg 0 args) with
      | Some o, None -> set o "fields" (Vlist [])
      | Some o, Some (Vstr si) -> (
          match cursor_of_strinfo si with
          | Some cu ->
              set_resp_kind ctx cu.cu_tx Respacc.Bk_json;
              record_nav ctx cu;
              set o "cursor" (Vcursor cu)
          | None -> set o "opaque" Vtop)
      | Some o, Some (Vcursor cu) -> set o "cursor" (Vcursor cu)
      | Some o, Some _ -> set o "opaque" Vtop
      | None, _ -> ());
      some Vnull
  | Json_arr_init ->
      (match (base_obj, arg 0 args) with
      | Some o, None -> set o "items" (Vlist [])
      | Some o, Some (Vstr si) -> (
          match cursor_of_strinfo si with
          | Some cu ->
              set_resp_kind ctx cu.cu_tx Respacc.Bk_json;
              set o "cursor" (Vcursor (cursor_child cu Sindex))
          | None -> set o "items" (Vlist []))
      | Some o, Some _ -> set o "items" (Vlist [])
      | None, _ -> ());
      some Vnull
  | Json_obj_put ->
      (match base_obj with
      | Some o -> (
          match slot o "fields" with
          | Some (Vlist fields) ->
              set o "fields"
                (Vlist (fields @ [ Vpair (arg_or_top 0 args, arg_or_top 1 args) ]))
          | _ -> ())
      | None -> ());
      some (match base with Some b -> b | None -> Vtop)
  | Json_arr_put -> (
      (* A parsed (cursor-backed) array is read-only: left unmodelled. *)
      match base_obj with
      | Some o when slot o "cursor" = None ->
          (match slot o "items" with
          | Some (Vlist items) -> set o "items" (Vlist (items @ [ arg_or_top 0 args ]))
          | _ -> set o "items" (Vlist [ arg_or_top 0 args ]));
          some (match base with Some b -> b | None -> Vtop)
      | Some _ | None -> None)
  | Json_to_string -> (
      match base_obj with
      | Some o ->
          let js = to_jsonsig !href (Vobj o) in
          let kprov =
            match slot o "fields" with
            | Some (Vlist fields) ->
                List.filter_map
                  (function
                    | Vpair (Vstr { sg = Strsig.Lit k; _ }, v) ->
                        Some (k, collect_prov !href v)
                    | _ -> None)
                  fields
            | _ -> []
          in
          some
            (Vstr
               {
                 sg = Strsig.unknown;
                 prov = collect_prov !href (Vobj o);
                 srcs = collect_srcs !href (Vobj o);
                 structured = Some js;
                 kprov;
               })
      | None -> some str_unknown)
  | Json_get -> (
      let cursor_of_base =
        match base with
        | Some (Vcursor cu) -> Some cu
        | Some (Vobj o) -> (
            match slot o "cursor" with Some (Vcursor cu) -> Some cu | _ -> None)
        | _ -> None
      in
      match cursor_of_base with
      | Some cu -> (
          let key_step =
            match arg 0 args with
            | Some (Vstr { sg = Strsig.Lit k; _ }) -> Some (Sfield k)
            | Some (Vint _) -> Some Sindex
            | Some _ | None -> None
          in
          match (name, key_step) with
          | ("getString" | "optString"), Some st ->
              some (cursor_leaf ctx cu st Respacc.Kstr str_of_cursor)
          | "getInt", Some st ->
              ignore (cursor_leaf ctx cu st Respacc.Knum (fun _ -> Vnull));
              some (Vint None)
          | "getBoolean", Some st ->
              ignore (cursor_leaf ctx cu st Respacc.Kbool (fun _ -> Vnull));
              some (Vbool None)
          | ("getJSONObject" | "getJSONArray"), Some st ->
              let cu' = cursor_child cu st in
              record_nav ctx cu';
              some (Vcursor cu')
          | "has", _ -> some (Vbool None)
          | "length", _ -> some (Vint None)
          | _, _ -> some Vtop)
      | None -> (
          match base_obj with
          | Some o -> (
              match slot o "fields" with
              | Some (Vlist fields) -> (
                  (* Builder lookup. *)
                  match arg 0 args with
                  | Some (Vstr { sg = Strsig.Lit key; _ }) -> (
                      let found =
                        List.find_map
                          (function
                            | Vpair (Vstr { sg = Strsig.Lit k; _ }, v) when k = key
                              ->
                                Some v
                            | _ -> None)
                          fields
                      in
                      match found with Some v -> some v | None -> some Vnull)
                  | Some _ | None -> some Vtop)
              | _ ->
                  (* Opaque parse (e.g. of a push message). *)
                  if name = "getInt" || name = "length" then some (Vint None)
                  else if name = "getBoolean" || name = "has" then some (Vbool None)
                  else if name = "getString" || name = "optString" then
                    some str_unknown
                  else some Vtop)
          | None -> some Vtop))
  (* -------------------- gson -------------------- *)
  | Gson_to_json -> (
      match arg 0 args with
      | Some (Vobj o) ->
          let fields =
            SMap.bindings (obj_slots !href o)
            |> List.filter (fun (k, _) -> not (String.length k > 1 && k.[0] = '_'))
          in
          let js =
            Jsonsig.Jobj (List.map (fun (k, v) -> (k, to_jsonsig !href v)) fields)
          in
          let kprov = List.map (fun (k, v) -> (k, collect_prov !href v)) fields in
          some
            (Vstr
               {
                 sg = Strsig.unknown;
                 prov = collect_prov !href (Vobj o);
                 srcs = collect_srcs !href (Vobj o);
                 structured = Some js;
                 kprov;
               })
      | Some _ | None -> some str_unknown)
  | Gson_from_json -> (
      match (arg 0 args, arg 1 args) with
      | Some (Vstr si), Some (Vstr { sg = Strsig.Lit clsname; _ }) -> (
          match cursor_of_strinfo si with
          | Some cu ->
              set_resp_kind ctx cu.cu_tx Respacc.Bk_json;
              let o = alloc clsname in
              set o "__gson_cursor" (Vcursor cu);
              some (Vobj o)
          | None -> some (Vobj (alloc clsname)))
      | _, _ -> some Vtop)
  (* -------------------- XML -------------------- *)
  | Xml_parse -> (
      match arg 0 args with
      | Some (Vstr si) -> (
          match cursor_of_strinfo si with
          | Some cu ->
              set_resp_kind ctx cu.cu_tx Respacc.Bk_xml;
              some (Vcursor cu)
          | None -> some Vtop)
      | Some (Vcursor cu) -> some (Vcursor cu)
      | _ -> some Vtop)
  | Xml_child -> (
      match (base, arg 0 args) with
      | Some (Vcursor cu), Some (Vstr { sg = Strsig.Lit tag; _ }) ->
          let cu' = cursor_child cu (Schild tag) in
          record_nav ctx cu';
          some (Vcursor cu')
      | _, _ -> some Vtop)
  | Xml_children -> (
      match (base, arg 0 args) with
      | Some (Vcursor cu), Some (Vstr { sg = Strsig.Lit tag; _ }) ->
          let cu' = cursor_child (cursor_child cu (Schild tag)) Sindex in
          record_nav ctx cu';
          let l = alloc Api.array_list in
          set l "items" (Vlist [ Vcursor cu' ]);
          some (Vobj l)
      | _, _ -> some Vtop)
  | Xml_attr -> (
      match (base, arg 0 args) with
      | Some (Vcursor cu), Some (Vstr { sg = Strsig.Lit a; _ }) ->
          some (cursor_leaf ctx cu (Sattr a) Respacc.Kstr str_of_cursor)
      | _, _ -> some str_unknown)
  | Xml_text -> (
      match base with
      | Some (Vcursor cu) -> some (cursor_leaf ctx cu Stext Respacc.Kstr str_of_cursor)
      | _ -> some str_unknown)
  (* -------------------- SQLite -------------------- *)
  | Db_write ->
      (match (arg 0 args, arg 1 args) with
      | Some (Vstr { sg = Strsig.Lit table; _ }), Some v ->
          (* Column-level stores when the values object exposes its pairs
             (ContentValues); whole-table fallback otherwise. *)
          let store key prov =
            if prov <> [] then begin
              let prev = Option.value (Hashtbl.find_opt ctx.cx_db key) ~default:[] in
              Hashtbl.replace ctx.cx_db key
                (prev @ List.filter (fun p -> not (List.mem p prev)) prov);
              List.iter
                (fun (p : prov) ->
                  match ctx.cx_tx p.p_tx with
                  | Some tx -> Txn.add_consumer tx (Msgsig.To_database table)
                  | None -> ())
                prov
            end
          in
          (match v with
          | Vobj o -> (
              match hslot href o "pairs" with
              | Some (Vlist pairs) ->
                  List.iter
                    (function
                      | Vpair (Vstr { sg = Strsig.Lit col; _ }, value) ->
                          store (table ^ "." ^ col) (collect_prov !href value)
                      | other -> store table (collect_prov !href other))
                    pairs
              | _ -> store table (collect_prov !href v))
          | _ -> store table (collect_prov !href v))
      | _, _ -> ());
      some Vnull
  | Db_query -> (
      match arg 0 args with
      | Some (Vstr { sg = Strsig.Lit table; _ }) ->
          let c = alloc Api.cursor in
          set c "table" (str_lit table);
          some (Vobj c)
      | Some _ | None -> some (Vobj (alloc Api.cursor)))
  | Cursor_get -> (
      match base_obj with
      | Some o -> (
          match slot o "table" with
          | Some (Vstr { sg = Strsig.Lit table; _ }) ->
              let key =
                match arg 0 args with
                | Some (Vstr { sg = Strsig.Lit col; _ })
                  when Hashtbl.mem ctx.cx_db (table ^ "." ^ col) ->
                    table ^ "." ^ col
                | _ -> table
              in
              let prov =
                Option.value (Hashtbl.find_opt ctx.cx_db key) ~default:[]
                |> List.map (fun (p : prov) ->
                       { p with p_via = Some ("db:" ^ table) })
              in
              some
                (Vstr
                   {
                     sg = Strsig.unknown;
                     prov;
                     srcs = [];
                     structured = None;
                     kprov = [];
                   })
          | _ -> some str_unknown)
      | None -> some str_unknown)
  | Cursor_next -> some (Vbool None)
  (* -------------------- consumers -------------------- *)
  | Set_text ->
      List.iter
        (fun (p : prov) ->
          match ctx.cx_tx p.p_tx with
          | Some tx ->
              Txn.add_consumer tx Msgsig.To_ui;
              (* Displaying the raw body is inspection: a whole-body use
                 makes the response a (text) pair. *)
              if p.p_path = [] then
                Respacc.set_kind tx.Txn.tx_resp Respacc.Bk_text
          | None -> ())
        (collect_prov !href (arg_or_top 0 args));
      some Vnull
  (* ------------ location, listener registrations ------------ *)
  | Location_lat | Location_lon ->
      some
        (Vstr
           {
             sg = Strsig.unknown;
             prov = [];
             srcs = [ "gps" ];
             structured = None;
             kprov = [];
           })
  | On_click | Location_updates | Timer_schedule | Push_subscribe ->
      Option.iter (fun e -> ctx.cx_register e (arg_or_top 0 args)) (Callbacks.event_of m);
      some Vnull
