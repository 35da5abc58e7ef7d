(* Property-based tests over randomly generated Limple programs.

   A program generator composes library-usage "idioms" (Apache GET/POST
   fetches, JSON parsing, StringBuilder URI building, UI reads, SQLite
   writes) into random activity classes.  Properties: the textual printer
   and parser round-trip every generated program; ProGuard-style
   obfuscation preserves validity and entry points; library obfuscation
   followed by signature-pattern recovery round-trips every class the
   program uses; loop widening of string signatures is sound (the widened
   signature accepts pumped iterations) and stable (widening is
   idempotent once the repetition is found); every string-valued library
   model's abstract result covers its concrete one. *)

module Ir = Extr_ir.Types
module B = Extr_ir.Builder
module Prog = Extr_ir.Prog
module Pp = Extr_ir.Pp
module Parser = Extr_ir.Parser
module Api = Extr_semantics.Api
module Apk = Extr_apk.Apk
module Obfuscator = Extr_apk.Obfuscator
module Deobfuscator = Extr_apk.Deobfuscator
module Strsig = Extr_siglang.Strsig
module Regex = Extr_siglang.Regex
module Absval = Extr_extractocol.Absval
module Api_sem = Extr_extractocol.Api_sem
module Runtime = Extr_runtime.Runtime
module Rvalue = Extr_runtime.Rvalue

(* ------------------------------------------------------------------ *)
(* Program generator                                                  *)
(* ------------------------------------------------------------------ *)

(* Idioms emit self-sufficient library usage: each uses enough of an API
   family that its classes are recoverable from shape alone.  [n] makes
   literals unique across instantiations. *)
let idiom_apache_get n b =
  let client = B.new_obj b Api.default_http_client [] in
  let req =
    B.new_obj b Api.http_get [ B.vstr (Printf.sprintf "https://h%d/x" n) ]
  in
  let resp =
    B.call_ret b (Ir.Obj Api.http_response)
      (B.virtual_call ~ret:(Ir.Obj Api.http_response) client Api.http_client
         "execute" [ B.vl req ])
  in
  let entity =
    B.call_ret b (Ir.Obj Api.http_entity)
      (B.virtual_call ~ret:(Ir.Obj Api.http_entity) resp Api.http_response
         "getEntity" [])
  in
  let body =
    B.call_ret b Ir.Str
      (B.static_call ~ret:Ir.Str Api.entity_utils "toString" [ B.vl entity ])
  in
  ignore body

let idiom_apache_post n b =
  let client = B.new_obj b Api.default_http_client [] in
  let req =
    B.new_obj b Api.http_post [ B.vstr (Printf.sprintf "https://h%d/y" n) ]
  in
  let pairs = B.new_obj b Api.array_list [] in
  let kv =
    B.new_obj b Api.name_value_pair [ B.vstr "k"; B.vstr (string_of_int n) ]
  in
  B.call b (B.virtual_call pairs Api.array_list "add" [ B.vl kv ]);
  let entity = B.new_obj b Api.form_entity [ B.vl pairs ] in
  B.call b (B.virtual_call req Api.http_request_base "setEntity" [ B.vl entity ]);
  B.call b
    (B.virtual_call ~ret:(Ir.Obj Api.http_response) client Api.http_client
       "execute" [ B.vl req ])

let idiom_json_parse n b =
  let j =
    B.new_obj b Api.json_object
      [ B.vstr (Printf.sprintf "{\"f%d\": \"v\"}" n) ]
  in
  let v =
    B.call_ret b Ir.Str
      (B.virtual_call ~ret:Ir.Str j Api.json_object "getString"
         [ B.vstr (Printf.sprintf "f%d" n) ])
  in
  ignore v

let idiom_sb_build n b =
  let sb =
    B.new_obj b Api.string_builder [ B.vstr (Printf.sprintf "base%d-" n) ]
  in
  let sb2 =
    B.call_ret b (Ir.Obj Api.string_builder)
      (B.virtual_call
         ~ret:(Ir.Obj Api.string_builder)
         sb Api.string_builder "append" [ B.vstr "suffix" ])
  in
  let s =
    B.call_ret b Ir.Str
      (B.virtual_call ~ret:Ir.Str sb2 Api.string_builder "toString" [])
  in
  ignore s

let idiom_ui n b =
  let et = B.new_obj b Api.edit_text [] in
  let text =
    B.call_ret b Ir.Str (B.virtual_call ~ret:Ir.Str et Api.edit_text "getText" [])
  in
  let tv = B.new_obj b Api.text_view [] in
  B.call b (B.virtual_call tv Api.text_view "setText" [ B.vl text ]);
  ignore n

let idiom_sqlite n b =
  let db = B.new_obj b Api.sqlite_database [] in
  let cv = B.new_obj b Api.content_values [] in
  B.call b (B.virtual_call cv Api.content_values "put" [ B.vstr "c"; B.vstr "v" ]);
  B.call b
    (B.virtual_call db Api.sqlite_database "insert"
       [ B.vstr (Printf.sprintf "t%d" n); B.vl cv ])

let idiom_loop_build n b =
  (* A paging loop: StringBuilder grows by a constant chunk per iteration
     (the rep-widening shape), guarded by an integer counter. *)
  let sb =
    B.new_obj b Api.string_builder [ B.vstr (Printf.sprintf "list%d?" n) ]
  in
  let i = B.define b Ir.Int (Ir.Val (B.vint 0)) in
  B.while_ b
    (fun b -> B.vl (B.define b Ir.Bool (Ir.Binop (Ir.Lt, B.vl i, B.vint 3))))
    (fun b ->
      ignore
        (B.call_ret b (Ir.Obj Api.string_builder)
           (B.virtual_call
              ~ret:(Ir.Obj Api.string_builder)
              sb Api.string_builder "append" [ B.vstr "&p=1" ]));
      B.assign b i (Ir.Binop (Ir.Add, B.vl i, B.vint 1)));
  let s =
    B.call_ret b Ir.Str
      (B.virtual_call ~ret:Ir.Str sb Api.string_builder "toString" [])
  in
  ignore s

let idiom_reflect n b =
  (* Reflective dispatch with constant names (the lifted §4 case). *)
  let c =
    B.call_ret b (Ir.Obj Api.java_class)
      (B.static_call ~ret:(Ir.Obj Api.java_class) Api.java_class "forName"
         [ B.vstr (Printf.sprintf "com.gen.Target%d" n) ])
  in
  let o =
    B.call_ret b
      (Ir.Obj "java.lang.Object")
      (B.virtual_call ~ret:(Ir.Obj "java.lang.Object") c Api.java_class
         "newInstance" [])
  in
  let m =
    B.call_ret b (Ir.Obj Api.reflect_method)
      (B.virtual_call ~ret:(Ir.Obj Api.reflect_method) c Api.java_class
         "getMethod" [ B.vstr "run" ])
  in
  B.call b (B.virtual_call m Api.reflect_method "invoke" [ B.vl o ])

let idioms =
  [|
    ("get", idiom_apache_get);
    ("post", idiom_apache_post);
    ("json", idiom_json_parse);
    ("sb", idiom_sb_build);
    ("ui", idiom_ui);
    ("sqlite", idiom_sqlite);
    ("loop", idiom_loop_build);
    ("reflect", idiom_reflect);
  |]

(* A generated program: a list of (class index, idiom indices).  Branches
   and loops come from the ite/while combinators wrapped around idioms. *)
type gen_spec = { gs_classes : (int list * bool) list }

let gen_spec_gen =
  let open QCheck.Gen in
  let idiom_ids = int_range 0 (Array.length idioms - 1) in
  let cls = pair (list_size (int_range 1 4) idiom_ids) bool in
  map (fun cs -> { gs_classes = cs }) (list_size (int_range 1 3) cls)

let program_of_spec (spec : gen_spec) : Ir.program =
  let classes =
    List.mapi
      (fun ci (idiom_ids, branchy) ->
        let cls = Printf.sprintf "com.gen.C%d" ci in
        let run =
          B.mk_meth ~cls ~name:"onCreate" ~params:[] ~ret:Ir.Void (fun b ->
              List.iteri
                (fun k id ->
                  let _, idiom = idioms.(id) in
                  let n = (ci * 10) + k in
                  if branchy && k land 1 = 0 then
                    let flag = B.define b Ir.Bool (Ir.Val (B.vbool true)) in
                    B.ite b (B.vl flag)
                      (fun b -> idiom n b)
                      (fun b -> idiom (n + 1000) b)
                  else idiom n b)
                idiom_ids;
              B.return_void b)
        in
        B.mk_cls ~super:Api.activity cls [ run ])
      spec.gs_classes
  in
  { Ir.p_classes = classes @ Api.library_classes; p_entries = [] }

let apk_of_spec spec =
  let program = program_of_spec spec in
  let activities =
    List.filter_map
      (fun (c : Ir.cls) -> if c.Ir.c_library then None else Some c.Ir.c_name)
      program.Ir.p_classes
  in
  Apk.make ~package:"com.gen" ~activities program

let arbitrary_spec = QCheck.make ~print:(fun s ->
    String.concat ";"
      (List.map
         (fun (ids, br) ->
           Printf.sprintf "[%s]%s"
             (String.concat ","
                (List.map (fun i -> fst idioms.(i)) ids))
             (if br then "~branchy" else ""))
         s.gs_classes))
    gen_spec_gen

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let prop_pp_parse_roundtrip =
  QCheck.Test.make ~count:60 ~name:"printer/parser round-trip on generated apps"
    arbitrary_spec
    (fun spec ->
      let p = program_of_spec spec in
      let text = Pp.program_to_string p in
      let p' = Parser.parse_program text in
      Pp.program_to_string p' = text)

(* String constants print as OCaml literals, which is [Printf.sprintf "%S"]
   (bytes outside 32-126 as decimal [\ddd]), and the parser decodes every
   escape that emits: any byte string survives print then parse. *)
let prop_string_literal_roundtrip =
  QCheck.Test.make ~count:500
    ~name:"string constants print as %S and parse back" QCheck.string
    (fun s ->
      let x = { Ir.vname = "x"; vty = Ir.Str } in
      let stmt = Ir.Assign (Ir.Lvar x, Ir.Val (Ir.Const (Ir.Cstr s))) in
      let m =
        {
          Ir.m_cls = "C";
          m_name = "m";
          m_params = [];
          m_ret = Ir.Void;
          m_static = true;
          m_body = [| stmt |];
        }
      in
      let c =
        {
          Ir.c_name = "C";
          c_super = None;
          c_fields = [];
          c_methods = [ m ];
          c_library = false;
        }
      in
      let text = Pp.program_to_string { Ir.p_classes = [ c ]; p_entries = [] } in
      Pp.stmt_to_string stmt = "x = " ^ Printf.sprintf "%S" s
      &&
      match (Parser.parse_program text).Ir.p_classes with
      | [ { Ir.c_methods = [ { Ir.m_body = [| Ir.Assign (_, e) |]; _ } ]; _ } ]
        ->
          e = Ir.Val (Ir.Const (Ir.Cstr s))
      | _ -> false)

let prop_generated_validates =
  QCheck.Test.make ~count:60 ~name:"generated programs pass validation"
    arbitrary_spec
    (fun spec ->
      Prog.validate (Prog.of_program (program_of_spec spec)) = [])

let prop_obfuscation_preserves_validity =
  QCheck.Test.make ~count:60 ~name:"obfuscated programs stay valid"
    arbitrary_spec
    (fun spec ->
      let apk = apk_of_spec spec in
      let obf, _ = Obfuscator.obfuscate apk in
      Prog.validate (Prog.of_program obf.Apk.program) = []
      && List.length (Apk.entry_points obf)
         = List.length (Apk.entry_points apk))

let used_library_classes (p : Ir.program) =
  let used = Hashtbl.create 16 in
  List.iter
    (fun (c : Ir.cls) ->
      if not c.Ir.c_library then
        List.iter
          (fun (m : Ir.meth) ->
            Array.iter
              (fun stmt ->
                match Ir.stmt_invoke stmt with
                | Some i when Api.is_library_class i.Ir.iref.Ir.mcls ->
                    Hashtbl.replace used i.Ir.iref.Ir.mcls ()
                | Some _ | None -> ())
              m.Ir.m_body)
          c.Ir.c_methods)
    p.Ir.p_classes;
  used

let prop_deobfuscation_roundtrip =
  QCheck.Test.make ~count:40
    ~name:"library de-obfuscation recovers every used class" arbitrary_spec
    (fun spec ->
      let apk = apk_of_spec spec in
      let obf, truth = Obfuscator.obfuscate_libraries apk in
      let _, mapping = Deobfuscator.deobfuscate obf in
      let used = used_library_classes apk.Apk.program in
      Hashtbl.fold
        (fun cls () ok ->
          let obf_name = Obfuscator.rename_class truth cls in
          let got = List.assoc_opt obf_name mapping.Deobfuscator.dm_classes in
          if got <> Some cls then
            Printf.eprintf "MISMATCH %s -> %s\n%!" cls
              (Option.value got ~default:"-");
          ok && got = Some cls)
        used true)

(* ------------------------------------------------------------------ *)
(* CFG invariants on generated programs                               *)
(* ------------------------------------------------------------------ *)

module Cfg = Extr_cfg.Cfg

let app_methods spec =
  List.concat_map
    (fun (c : Ir.cls) -> if c.Ir.c_library then [] else c.Ir.c_methods)
    (program_of_spec spec).Ir.p_classes

let prop_cfg_blocks_partition =
  QCheck.Test.make ~count:60 ~name:"basic blocks partition the statements"
    arbitrary_spec
    (fun spec ->
      List.for_all
        (fun (m : Ir.meth) ->
          let cfg = Cfg.build m in
          let n = Array.length m.Ir.m_body in
          let covered = Array.make n 0 in
          Array.iter
            (fun (b : Cfg.block) ->
              for i = b.Cfg.b_first to b.Cfg.b_last do
                covered.(i) <- covered.(i) + 1
              done)
            cfg.Cfg.blocks;
          Array.for_all (fun c -> c = 1) covered
          && Array.for_all
               (fun (b : Cfg.block) ->
                 Array.for_all
                   (fun i ->
                     (i < b.Cfg.b_first || i > b.Cfg.b_last)
                     || cfg.Cfg.block_of_stmt.(i) = b.Cfg.b_id)
                   (Array.init n Fun.id))
               cfg.Cfg.blocks)
        (app_methods spec))

let prop_cfg_edge_symmetry =
  QCheck.Test.make ~count:60 ~name:"succ and pred edges agree"
    arbitrary_spec
    (fun spec ->
      List.for_all
        (fun (m : Ir.meth) ->
          let cfg = Cfg.build m in
          let ok = ref true in
          Array.iteri
            (fun a succs ->
              List.iter
                (fun b -> if not (List.mem a cfg.Cfg.preds.(b)) then ok := false)
                succs)
            cfg.Cfg.succs;
          Array.iteri
            (fun b preds ->
              List.iter
                (fun a -> if not (List.mem b cfg.Cfg.succs.(a)) then ok := false)
                preds)
            cfg.Cfg.preds;
          !ok)
        (app_methods spec))

let prop_cfg_entry_dominates =
  QCheck.Test.make ~count:60 ~name:"entry dominates every reachable block"
    arbitrary_spec
    (fun spec ->
      List.for_all
        (fun (m : Ir.meth) ->
          let cfg = Cfg.build m in
          let reach = Cfg.reachable cfg in
          let doms = Cfg.dominators cfg in
          Array.for_all Fun.id
            (Array.init (Cfg.n_blocks cfg) (fun b ->
                 (not reach.(b)) || List.mem 0 doms.(b))))
        (app_methods spec))

let prop_cfg_topo_respects_forward_edges =
  QCheck.Test.make ~count:60
    ~name:"topological order places forward edges forward" arbitrary_spec
    (fun spec ->
      List.for_all
        (fun (m : Ir.meth) ->
          let cfg = Cfg.build m in
          let loops = Cfg.loops cfg in
          let order = Cfg.topological_order cfg loops in
          let pos = Hashtbl.create 16 in
          List.iteri (fun i b -> Hashtbl.replace pos b i) order;
          let back = loops.Cfg.back_edges in
          let ok = ref true in
          Array.iteri
            (fun a succs ->
              List.iter
                (fun b ->
                  if not (List.mem (a, b) back) then
                    match (Hashtbl.find_opt pos a, Hashtbl.find_opt pos b) with
                    | Some ia, Some ib -> if ia >= ib then ok := false
                    | _, _ -> () (* unreachable blocks are not ordered *))
                succs)
            cfg.Cfg.succs;
          !ok)
        (app_methods spec))

let prop_cfg_back_edge_dominance =
  QCheck.Test.make ~count:60 ~name:"loop headers dominate their latches"
    arbitrary_spec
    (fun spec ->
      List.for_all
        (fun (m : Ir.meth) ->
          let cfg = Cfg.build m in
          let doms = Cfg.dominators cfg in
          List.for_all
            (fun (latch, header) ->
              List.mem header cfg.Cfg.succs.(latch)
              && List.mem header doms.(latch))
            (Cfg.loops cfg).Cfg.back_edges)
        (app_methods spec))

(* ------------------------------------------------------------------ *)
(* Trace-archive round-trip                                            *)
(* ------------------------------------------------------------------ *)

module Http = Extr_httpmodel.Http
module Har = Extr_httpmodel.Har
module Json = Extr_httpmodel.Json
module Uri = Extr_httpmodel.Uri
module Xml = Extr_httpmodel.Xml
module Fuzz = Extr_fuzz.Fuzz
module Corpus = Extr_corpus.Corpus

let gen_trace =
  let open QCheck.Gen in
  let token =
    oneofl [ "api"; "v1"; "id"; "user"; "token"; "x1"; "q" ]
  in
  let gen_json_leaf =
    oneof
      [
        map (fun s -> Json.Str s) token;
        map (fun n -> Json.Int n) small_int;
        return (Json.Bool true);
        return Json.Null;
      ]
  in
  let gen_json =
    let* keys = list_size (int_range 0 3) token in
    let keys = List.sort_uniq compare keys in
    let* leaves = flatten_l (List.map (fun _ -> gen_json_leaf) keys) in
    return (Json.Obj (List.combine keys leaves))
  in
  let gen_body =
    oneof
      [
        return Http.No_body;
        (let* kvs = list_size (int_range 1 3) (pair token token) in
         (* Query keys must be unique for assoc-style round-trips. *)
         let kvs =
           List.sort_uniq (fun (a, _) (b, _) -> compare a b) kvs
         in
         return (Http.Query kvs));
        map (fun j -> Http.Json j) gen_json;
        map (fun s -> Http.Text s) token;
        map (fun s -> Http.Binary s) token;
        map (fun s -> Http.Xml (Xml.element "root" [ Xml.text s ])) token;
      ]
  in
  let gen_trigger =
    let* label = token in
    oneofl
      [
        Http.Ui_click label; Http.Ui_custom label; Http.Ui_action label;
        Http.Timer label; Http.Server_push label; Http.App_internal label;
      ]
  in
  let gen_entry =
    let* path = token and* q = token in
    let uri =
      Option.get
        (Uri.of_string_opt (Printf.sprintf "https://host.example/%s?k=%s" path q))
    in
    let* meth = oneofl [ Http.GET; Http.POST; Http.PUT; Http.DELETE ] in
    let* req_body = gen_body and* resp_body = gen_body in
    let* status = oneofl [ 200; 403; 404 ] in
    let* trigger = gen_trigger in
    return
      {
        Http.te_tx =
          {
            Http.tx_request =
              Http.request ~headers:[ ("User-Agent", "t/1") ] ~body:req_body
                meth uri;
            tx_response = Http.response ~status resp_body;
          };
        te_trigger = trigger;
      }
  in
  let* entries = list_size (int_range 0 6) gen_entry in
  return { Http.tr_app = "gen"; tr_entries = entries }

let prop_har_roundtrip =
  QCheck.Test.make ~count:200 ~name:"trace archive round-trips"
    (QCheck.make gen_trace)
    (fun trace ->
      match Har.of_string (Har.to_string trace) with
      | None -> false
      | Some trace' -> Har.to_string trace' = Har.to_string trace)

let prop_har_fuzz_traces =
  QCheck.Test.make ~count:1 ~name:"real fuzz traces round-trip"
    QCheck.unit
    (fun () ->
      let entries = Corpus.case_studies () in
      List.for_all
        (fun (e : Corpus.entry) ->
          let apk = Lazy.force e.Corpus.c_apk in
          let trace = Fuzz.run e.Corpus.c_app apk ~policy:`Full in
          match Har.of_string (Har.to_string trace) with
          | None -> false
          | Some trace' -> Har.to_string trace' = Har.to_string trace)
        entries)

(* ------------------------------------------------------------------ *)
(* Widening properties                                                *)
(* ------------------------------------------------------------------ *)

let gen_lit =
  QCheck.Gen.oneofl [ "a"; "xy"; "&p="; "/seg"; "12" ]

let gen_base_and_delta =
  QCheck.Gen.(pair gen_lit gen_lit)

let prop_widen_sound =
  (* widen(base, base·delta) accepts base, base·delta, base·delta·delta. *)
  QCheck.Test.make ~count:100 ~name:"widened signature accepts pumped loops"
    (QCheck.make gen_base_and_delta)
    (fun (base, delta) ->
      let s0 = Strsig.lit base in
      let s1 = Strsig.concat [ s0; Strsig.lit delta ] in
      let w = Absval.widen_sig s0 s1 in
      let re = Strsig.to_regex w in
      Regex.string_matches ~pattern:re base
      && Regex.string_matches ~pattern:re (base ^ delta)
      && Regex.string_matches ~pattern:re (base ^ delta ^ delta))

let prop_widen_stable =
  (* Re-widening with one more iteration is a no-op once rep is found. *)
  QCheck.Test.make ~count:100 ~name:"widening reaches a fixed point"
    (QCheck.make gen_base_and_delta)
    (fun (base, delta) ->
      let s0 = Strsig.lit base in
      let s1 = Strsig.concat [ s0; Strsig.lit delta ] in
      let w = Absval.widen_sig s0 s1 in
      let w' = Absval.widen_sig w (Strsig.concat [ w; Strsig.lit delta ]) in
      Strsig.equal w w')

let prop_strip_prefix =
  QCheck.Test.make ~count:100 ~name:"strip_prefix inverts concatenation"
    (QCheck.make gen_base_and_delta)
    (fun (base, delta) ->
      let s0 = Strsig.lit base in
      let s1 = Strsig.concat [ s0; Strsig.lit delta ] in
      match Absval.strip_prefix s0 s1 with
      | Some rest -> Strsig.equal rest (Strsig.lit delta)
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Soundness: the abstract library models cover the concrete ones       *)
(* ------------------------------------------------------------------ *)

(* Every table entry whose concrete result is a string, on sampled
   arguments.  The runtime executes each call as a one-statement method;
   the abstract model sees each argument as its literal or, at random, as
   unknown, and a string also as its first half followed by an unknown.
   The concrete string must lie in the language of the abstract
   signature — the abstract-versus-concrete relation "Computational
   Soundness for Dalvik Bytecode" formalises, checked by sampling.  A
   StringBuilder's result is its contents, read back with toString. *)

type sample = Str of string | Int of int | Bool of bool | Null
type lift = Literal | Unknown | Prefix

let show_sample (s, lift) =
  (match lift with Literal -> "" | Unknown -> "?" | Prefix -> "~")
  ^
  match s with
  | Str s -> Printf.sprintf "%S" s
  | Int n -> string_of_int n
  | Bool b -> string_of_bool b
  | Null -> "null"

let concrete = function
  | Str s -> Rvalue.Rstr s
  | Int n -> Rvalue.Rint n
  | Bool b -> Rvalue.Rbool b
  | Null -> Rvalue.Rnull

let abstract (s, lift) =
  let known = lift = Literal in
  match s with
  | Str s when lift = Prefix ->
      Absval.str_of_sig
        (Strsig.concat [ Strsig.lit (String.sub s 0 (String.length s / 2)); Strsig.unknown ])
  | Str s -> if known then Absval.str_lit s else Absval.str_unknown
  | Int n -> Absval.Vint (if known then Some n else None)
  | Bool b -> Absval.Vbool (if known then Some b else None)
  | Null -> if known then Absval.Vnull else Absval.Vtop

(* Strings of whitespace, URL metacharacters and multi-byte UTF-8.  Ints
   stay in the numerals an unknown int stands for ([Strsig.num],
   [0-9]+): a negative int is outside that language, a known gap of the
   numeric hint that the report's regexes share. *)
let gen_sample =
  let open QCheck.Gen in
  let piece =
    oneofl [ " "; "\t"; "\n"; "%"; "&"; "="; "a"; "Z"; "7"; "/"; "\xc3\xa9"; "\xe2\x82\xac" ]
  in
  frequency
    [
      (4, map (fun ps -> Str (String.concat "" ps)) (list_size (int_bound 6) piece));
      (2, map (fun n -> Int n) (int_bound 100_000));
      (1, map (fun b -> Bool b) bool);
      (1, return Null);
    ]

(* The receiver of a step: none, the case's one StringBuilder, or a
   sampled value. *)
type recv = No_recv | Builder | Sampled

let string_entries =
  let sb name n = (Builder, Api.string_builder, name, n) in
  [
    ("StringBuilder.<init>", [ sb "<init>" 1; sb "toString" 0 ]);
    ("StringBuilder.append", [ sb "<init>" 1; sb "append" 1; sb "toString" 0 ]);
    ("String.valueOf", [ (No_recv, Api.java_string, "valueOf", 1) ]);
    ("String.concat", [ (Sampled, Api.java_string, "concat", 1) ]);
    ("String.trim", [ (Sampled, Api.java_string, "trim", 0) ]);
    ("Integer.toString", [ (No_recv, Api.java_integer, "toString", 1) ]);
    ("URLEncoder.encode", [ (No_recv, Api.url_encoder, "encode", 1) ]);
  ]

let probe_apk =
  Apk.make ~package:"probe" { Ir.p_classes = Api.library_classes; p_entries = [] }

let abstract_ctx heap : Api_sem.ctx =
  {
    Api_sem.cx_prog = Prog.of_program probe_apk.Apk.program;
    cx_heap = heap;
    cx_sid = { Ir.sid_meth = { Ir.id_cls = "Probe"; id_name = "run" }; sid_idx = 0 };
    cx_resources = (fun _ -> None);
    cx_new_tx = (fun ~dp:_ -> invalid_arg "no transactions in a string model");
    cx_tx = (fun _ -> None);
    cx_db = Hashtbl.create 1;
    cx_run_callback = (fun _ _ _ -> Absval.Vtop);
    cx_register = (fun _ _ -> ());
    cx_intents = false;
  }

(* Run [steps] concretely and abstractly on [samples]; the two results of
   the last step. *)
let run_both steps samples =
  let rt =
    Runtime.create ~net:(fun _ -> failwith "no network") ~input:(fun () -> "") probe_apk
  in
  let heap = ref Absval.empty_heap in
  let ctx = abstract_ctx heap in
  let builder =
    (Rvalue.Robj (Rvalue.new_obj Api.string_builder), Absval.Vobj (Absval.halloc heap Api.string_builder))
  in
  let rest = ref samples in
  let take () =
    match !rest with
    | x :: tl ->
        rest := tl;
        (concrete (fst x), abstract x)
    | [] -> invalid_arg "run_both: too few samples"
  in
  List.fold_left
    (fun _ (recv, cls, name, n) ->
      let this =
        match recv with No_recv -> None | Builder -> Some builder | Sampled -> Some (take ())
      in
      let args = List.init n (fun _ -> take ()) in
      let params = List.mapi (fun k _ -> B.local (Printf.sprintf "p%d" k) Ir.Str) args in
      let call =
        match recv with
        | No_recv -> B.static_call ~ret:Ir.Str cls name (List.map B.vl params)
        | Builder | Sampled ->
            B.virtual_call ~ret:Ir.Str (B.local "this" (Ir.Obj cls)) cls name
              (List.map B.vl params)
      in
      let meth =
        B.mk_meth ~cls:"Probe" ~name:"run" ~params ~ret:Ir.Str (fun b ->
            B.return_value b (B.vl (B.call_ret b Ir.Str call)))
      in
      let c = Runtime.exec_method rt meth ~this:(Option.map fst this) ~args:(List.map fst args) in
      let a =
        Api_sem.call ctx ~sid:ctx.Api_sem.cx_sid (Option.get (Api.model_of call)) call
          ~base:(Option.map snd this) ~args:(List.map snd args)
      in
      (c, Option.value a ~default:Absval.Vtop))
    (Rvalue.Rnull, Absval.Vtop) steps

let prop_abstract_covers_concrete (label, steps) =
  let n =
    List.fold_left
      (fun acc (recv, _, _, k) -> acc + k + if recv = Sampled then 1 else 0)
      0 steps
  in
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "abstract %s covers the concrete result" label)
    (QCheck.make
       ~print:(fun l -> String.concat ", " (List.map show_sample l))
       QCheck.Gen.(list_repeat n (pair gen_sample (oneofl [ Literal; Unknown; Prefix ]))))
    (fun samples ->
      let c, a = run_both steps samples in
      let s = Rvalue.to_string c and sg = (Absval.strinfo_of a).Absval.sg in
      Strsig.matches sg s
      || QCheck.Test.fail_reportf "concrete %S is not in %s" s (Strsig.to_string sg))

let () =
  Alcotest.run "props"
    [
      ( "programs",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_pp_parse_roundtrip;
            prop_string_literal_roundtrip;
            prop_generated_validates;
            prop_obfuscation_preserves_validity;
            prop_deobfuscation_roundtrip;
          ] );
      ( "cfg",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_cfg_blocks_partition;
            prop_cfg_edge_symmetry;
            prop_cfg_entry_dominates;
            prop_cfg_topo_respects_forward_edges;
            prop_cfg_back_edge_dominance;
          ] );
      ( "widening",
        List.map QCheck_alcotest.to_alcotest
          [ prop_widen_sound; prop_widen_stable; prop_strip_prefix ] );
      ( "trace-archive",
        List.map QCheck_alcotest.to_alcotest
          [ prop_har_roundtrip; prop_har_fuzz_traces ] );
      ( "lib-models",
        List.map
          (fun e -> QCheck_alcotest.to_alcotest (prop_abstract_covers_concrete e))
          string_entries );
    ]
