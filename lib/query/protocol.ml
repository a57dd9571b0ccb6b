(** See the interface for the protocol contract. Implementation notes:

    - the JSON request parser replicates the field-validation order
      (and the exact error kinds/messages) of the pre-protocol
      [Serve] code, so existing clients and goldens see identical
      error responses;
    - the binary codec builds on {!Lapis_store.Snapshot.Wire} — the
      same zigzag-LEB128 / length-prefixed-string / float-bits
      primitives as the snapshot formats — and converts every
      [Wire.Fail] into [Error], keeping decode total;
    - request ids are arbitrary JSON scalars on the JSON side; the
      binary codec carries them as their serialized JSON text, so any
      id round-trips through either codec. *)

module Stage = Lapis_perf.Stage
module Histogram = Lapis_perf.Histogram
module Snapshot = Lapis_store.Snapshot
module Wire = Lapis_store.Snapshot.Wire

type codec = Json_lines | Binary

let bad_request = "bad-request"
let bad_api = "bad-api"
let bad_phase = "bad-phase"
let unknown_op = "unknown-op"
let parse_error = "parse"
let internal_error = "internal"
let overloaded = "overloaded"
let degraded = "degraded"

type req =
  | Ping
  | Stats
  | Importance of { api : string; phase : Query.phase }
  | Completeness of { syscalls : int list; phase : Query.phase }
  | Partial_completeness of {
      syscalls : int list;
      phase : Query.phase;
      lo : int;
      hi : int;
    }
  | Top of int
  | Dependents of { api : string; limit : int option }
  | Unknown of string

type request = { rq_id : Json.t option; rq_op : req }

let op_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Importance _ -> "importance"
  | Completeness _ -> "completeness"
  | Partial_completeness _ -> "partial-completeness"
  | Top _ -> "top"
  | Dependents _ -> "dependents"
  | Unknown s -> s

type err = { e_kind : string; e_msg : string }

type stats_reply = {
  st_packages : int;
  st_apis : int;
  st_binaries : int;
  st_installs : int;
  st_gauges : (string * float) list;
  st_hists : (string * Histogram.summary) list;
}

type reply =
  | Pong
  | Stats_r of stats_reply
  | Importance_r of {
      api : string;
      phase : Query.phase;
      importance : float;
      unweighted : float;
    }
  | Completeness_r of {
      n_syscalls : int;
      phase : Query.phase;
      completeness : float;
    }
  | Partial_r of { lo : int; hi : int; num : float; den : float }
  | Top_r of Query.ranked list
  | Dependents_r of { api : string; packages : (string * float) list }

type response = { rs_id : Json.t option; rs_result : (reply, err) result }

let error_response ?id ~kind msg =
  { rs_id = id; rs_result = Error { e_kind = kind; e_msg = msg } }

(* ------------------------------------------------------------------ *)
(* JSON codec: requests                                                *)
(* ------------------------------------------------------------------ *)

(* The [Error] side of every field helper is a ready error response;
   the id is attached by [request_of_json]'s wrapper so helpers stay
   id-free. *)

let str_field j key =
  match Json.member key j with
  | None ->
    Error (bad_request, Printf.sprintf "missing %S field" key)
  | Some v ->
    (match Json.to_str v with
     | Some s -> Ok s
     | None ->
       Error (bad_request, Printf.sprintf "%S must be a string" key))

let phase_field j =
  match Json.member "phase" j with
  | None -> Ok Query.All
  | Some v ->
    (match Json.to_str v with
     | None -> Error (bad_request, "\"phase\" must be a string")
     | Some s ->
       (match Query.phase_of_string s with
        | Ok ph -> Ok ph
        | Error msg -> Error (bad_phase, msg)))

let int_list_field j key =
  match Json.member key j with
  | None -> Error (bad_request, Printf.sprintf "missing %S field" key)
  | Some v ->
    (match Json.to_list v with
     | None ->
       Error (bad_request, Printf.sprintf "%S must be an array" key)
     | Some items ->
       let rec go acc = function
         | [] -> Ok (List.rev acc)
         | x :: rest ->
           (match Json.to_int x with
            | Some n -> go (n :: acc) rest
            | None ->
              Error
                (bad_request,
                 Printf.sprintf "%S must contain integers" key))
       in
       go [] items)

let int_field j key =
  match Json.member key j with
  | None -> Error (bad_request, Printf.sprintf "missing %S field" key)
  | Some v ->
    (match Json.to_int v with
     | Some n -> Ok n
     | None ->
       Error (bad_request, Printf.sprintf "%S must be an integer" key))

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let req_of_json j : (req, string * string) result =
  match Json.member "op" j with
  | None -> Error (bad_request, "missing \"op\" field")
  | Some op_j ->
    (match Json.to_str op_j with
     | None -> Error (bad_request, "\"op\" must be a string")
     | Some op ->
       (match op with
        | "ping" -> Ok Ping
        | "stats" -> Ok Stats
        | "importance" ->
          let* api = str_field j "api" in
          let* phase = phase_field j in
          Ok (Importance { api; phase })
        | "completeness" ->
          let* syscalls = int_list_field j "syscalls" in
          let* phase = phase_field j in
          Ok (Completeness { syscalls; phase })
        | "partial-completeness" ->
          let* syscalls = int_list_field j "syscalls" in
          let* phase = phase_field j in
          let* lo = int_field j "lo" in
          let* hi = int_field j "hi" in
          Ok (Partial_completeness { syscalls; phase; lo; hi })
        | "top" ->
          let n =
            match Json.member "n" j with
            | Some v -> Option.value ~default:10 (Json.to_int v)
            | None -> 10
          in
          Ok (Top n)
        | "dependents" ->
          let* api = str_field j "api" in
          let limit = Option.bind (Json.member "limit" j) Json.to_int in
          Ok (Dependents { api; limit })
        | other -> Ok (Unknown other)))

let request_of_json j : (request, response) result =
  let id = Json.member "id" j in
  match req_of_json j with
  | Ok op -> Ok { rq_id = id; rq_op = op }
  | Error (kind, msg) -> Error (error_response ?id ~kind msg)

let phase_fields phase =
  if phase = Query.All then []
  else [ ("phase", Json.Str (Query.phase_to_string phase)) ]

let num n = Json.Num (float_of_int n)

let json_of_req = function
  | Ping -> [ ("op", Json.Str "ping") ]
  | Stats -> [ ("op", Json.Str "stats") ]
  | Importance { api; phase } ->
    (("op", Json.Str "importance") :: ("api", Json.Str api)
     :: phase_fields phase)
  | Completeness { syscalls; phase } ->
    (("op", Json.Str "completeness")
     :: ("syscalls", Json.Arr (List.map num syscalls))
     :: phase_fields phase)
  | Partial_completeness { syscalls; phase; lo; hi } ->
    (("op", Json.Str "partial-completeness")
     :: ("syscalls", Json.Arr (List.map num syscalls))
     :: phase_fields phase)
    @ [ ("lo", num lo); ("hi", num hi) ]
  | Top n -> [ ("op", Json.Str "top"); ("n", num n) ]
  | Dependents { api; limit } ->
    (("op", Json.Str "dependents") :: ("api", Json.Str api)
     ::
     (match limit with
      | None -> []
      | Some l -> [ ("limit", num l) ]))
  | Unknown s -> [ ("op", Json.Str s) ]

let json_of_request { rq_id; rq_op } =
  let fields = json_of_req rq_op in
  match rq_id with
  | None -> Json.Obj fields
  | Some id -> Json.Obj (("id", id) :: fields)

(* ------------------------------------------------------------------ *)
(* JSON codec: responses                                               *)
(* ------------------------------------------------------------------ *)

let reply_op = function
  | Pong -> "ping"
  | Stats_r _ -> "stats"
  | Importance_r _ -> "importance"
  | Completeness_r _ -> "completeness"
  | Partial_r _ -> "partial-completeness"
  | Top_r _ -> "top"
  | Dependents_r _ -> "dependents"

let ranked_json (r : Query.ranked) =
  Json.Obj
    [
      ("nr", num r.Query.rk_nr);
      ("name", Json.Str r.Query.rk_name);
      ("importance", Json.Num r.Query.rk_importance);
      ("unweighted_elf", Json.Num r.Query.rk_unweighted_elf);
    ]

let hist_json (s : Histogram.summary) =
  Json.Obj
    [
      ("count", num s.Histogram.h_count);
      ("p50", Json.Num s.Histogram.h_p50);
      ("p95", Json.Num s.Histogram.h_p95);
      ("p99", Json.Num s.Histogram.h_p99);
      ("max", Json.Num s.Histogram.h_max);
    ]

let reply_fields = function
  | Pong -> [ ("pong", Json.Bool true) ]
  | Stats_r s ->
    [ ("n_packages", num s.st_packages);
      ("n_apis", num s.st_apis);
      ("n_binaries", num s.st_binaries);
      ("total_installs", num s.st_installs) ]
    @ List.map (fun (k, v) -> (k, Json.Num v)) s.st_gauges
    @ (match s.st_hists with
       | [] -> []
       | hs ->
         [ ("hists", Json.Obj (List.map (fun (k, h) -> (k, hist_json h)) hs)) ])
  | Importance_r { api; phase; importance; unweighted } ->
    [ ("api", Json.Str api);
      ("phase", Json.Str (Query.phase_to_string phase));
      ("importance", Json.Num importance);
      ("unweighted", Json.Num unweighted) ]
  | Completeness_r { n_syscalls; phase; completeness } ->
    [ ("n_syscalls", num n_syscalls);
      ("phase", Json.Str (Query.phase_to_string phase));
      ("completeness", Json.Num completeness) ]
  | Partial_r { lo; hi; num = n; den } ->
    [ ("lo", Json.Num (float_of_int lo));
      ("hi", Json.Num (float_of_int hi));
      ("num", Json.Num n);
      ("den", Json.Num den) ]
  | Top_r ranked -> [ ("syscalls", Json.Arr (List.map ranked_json ranked)) ]
  | Dependents_r { api; packages } ->
    [ ("api", Json.Str api);
      ( "packages",
        Json.Arr
          (List.map
             (fun (name, prob) ->
               Json.Obj
                 [ ("package", Json.Str name); ("prob", Json.Num prob) ])
             packages) ) ]

let json_of_response { rs_id; rs_result } =
  let fields =
    match rs_result with
    | Ok reply ->
      ("ok", Json.Bool true)
      :: ("op", Json.Str (reply_op reply))
      :: reply_fields reply
    | Error { e_kind; e_msg } ->
      [ ("ok", Json.Bool false);
        ( "error",
          Json.Obj
            [ ("kind", Json.Str e_kind); ("msg", Json.Str e_msg) ] ) ]
  in
  match rs_id with
  | None -> Json.Obj fields
  | Some id -> Json.Obj (("id", id) :: fields)

(* --- response decoding (the router's JSON-codec shard path) -------- *)

let rint j key =
  match Option.bind (Json.member key j) Json.to_int with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "response lacks integer %S" key)

let rfloat j key =
  match Json.member key j with
  | Some (Json.Num f) -> Ok f
  | _ -> Error (Printf.sprintf "response lacks number %S" key)

let rstr j key =
  match Option.bind (Json.member key j) Json.to_str with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "response lacks string %S" key)

let phase_of_response j =
  match Json.member "phase" j with
  | None -> Ok Query.All
  | Some v ->
    (match Option.bind (Some v) Json.to_str with
     | None -> Error "response \"phase\" not a string"
     | Some s ->
       (match Query.phase_of_string s with
        | Ok ph -> Ok ph
        | Error m -> Error m))

let decode_reply op j =
  match op with
  | "ping" -> Ok Pong
  | "stats" ->
    let* st_packages = rint j "n_packages" in
    let* st_apis = rint j "n_apis" in
    let* st_binaries = rint j "n_binaries" in
    let* st_installs = rint j "total_installs" in
    let core =
      [ "id"; "ok"; "op"; "n_packages"; "n_apis"; "n_binaries";
        "total_installs"; "hists" ]
    in
    let st_gauges =
      match j with
      | Json.Obj fields ->
        List.filter_map
          (fun (k, v) ->
            match v with
            | Json.Num f when not (List.mem k core) -> Some (k, f)
            | _ -> None)
          fields
      | _ -> []
    in
    let st_hists =
      match Json.member "hists" j with
      | Some (Json.Obj hs) ->
        List.filter_map
          (fun (k, h) ->
            match
              ( rint h "count", rfloat h "p50", rfloat h "p95",
                rfloat h "p99", rfloat h "max" )
            with
            | Ok h_count, Ok h_p50, Ok h_p95, Ok h_p99, Ok h_max ->
              Some
                ( k,
                  { Histogram.h_count; h_p50; h_p95; h_p99; h_max } )
            | _ -> None)
          hs
      | _ -> []
    in
    Ok (Stats_r { st_packages; st_apis; st_binaries; st_installs;
                  st_gauges; st_hists })
  | "importance" ->
    let* api = rstr j "api" in
    let* phase = phase_of_response j in
    let* importance = rfloat j "importance" in
    let* unweighted = rfloat j "unweighted" in
    Ok (Importance_r { api; phase; importance; unweighted })
  | "completeness" ->
    let* n_syscalls = rint j "n_syscalls" in
    let* phase = phase_of_response j in
    let* completeness = rfloat j "completeness" in
    Ok (Completeness_r { n_syscalls; phase; completeness })
  | "partial-completeness" ->
    let* lo = rint j "lo" in
    let* hi = rint j "hi" in
    let* n = rfloat j "num" in
    let* den = rfloat j "den" in
    Ok (Partial_r { lo; hi; num = n; den })
  | "top" ->
    (match Json.member "syscalls" j with
     | Some (Json.Arr items) ->
       let rec go acc = function
         | [] -> Ok (Top_r (List.rev acc))
         | r :: rest ->
           let* rk_nr = rint r "nr" in
           let* rk_name = rstr r "name" in
           let* rk_importance = rfloat r "importance" in
           let* rk_unweighted_elf = rfloat r "unweighted_elf" in
           go
             ({ Query.rk_nr; rk_name; rk_importance; rk_unweighted_elf }
              :: acc)
             rest
       in
       go [] items
     | _ -> Error "response lacks \"syscalls\"")
  | "dependents" ->
    let* api = rstr j "api" in
    (match Json.member "packages" j with
     | Some (Json.Arr items) ->
       let rec go acc = function
         | [] -> Ok (Dependents_r { api; packages = List.rev acc })
         | p :: rest ->
           let* name = rstr p "package" in
           let* prob = rfloat p "prob" in
           go ((name, prob) :: acc) rest
       in
       go [] items
     | _ -> Error "response lacks \"packages\"")
  | other -> Error (Printf.sprintf "unknown response op %S" other)

let response_of_json j =
  let id = Json.member "id" j in
  match Json.member "ok" j with
  | Some (Json.Bool true) ->
    (match Option.bind (Json.member "op" j) Json.to_str with
     | None -> Error "ok response lacks \"op\""
     | Some op ->
       (match decode_reply op j with
        | Ok reply -> Ok { rs_id = id; rs_result = Ok reply }
        | Error msg -> Error msg))
  | Some (Json.Bool false) ->
    (match Json.member "error" j with
     | Some e ->
       let kind =
         Option.value ~default:"unknown"
           (Option.bind (Json.member "kind" e) Json.to_str)
       in
       let msg =
         Option.value ~default:""
           (Option.bind (Json.member "msg" e) Json.to_str)
       in
       Ok (error_response ?id ~kind msg)
     | None -> Error "error response lacks \"error\"")
  | _ -> Error "response lacks boolean \"ok\""

(* ------------------------------------------------------------------ *)
(* Binary codec                                                        *)
(* ------------------------------------------------------------------ *)

module Bin = struct
  let magic = '\xB1'
  let max_frame = 16 * 1024 * 1024

  exception Bad of string

  let frame payload =
    let b = Buffer.create (String.length payload + 5) in
    Buffer.add_char b magic;
    let n = String.length payload in
    Buffer.add_char b (Char.chr (n land 0xff));
    Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
    Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
    Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
    Buffer.add_string b payload;
    Buffer.contents b

  (* Request tags live in 0x01..0x1f, response tags in 0x41..0x5f,
     the error response at 0x7f — disjoint ranges, so a frame decoded
     in the wrong direction fails loudly instead of aliasing. 0x0a and
     0x49 carried the retired [batch] op, 0x01 and 0x41 the retired
     [hello]: they stay unassigned, so an old peer's frame is an
     unknown tag, never another op. *)
  let t_ping = 0x02
  and t_stats = 0x03
  and t_importance = 0x04
  and t_completeness = 0x05
  and t_partial = 0x06
  and t_top = 0x07
  and t_dependents = 0x08
  and t_unknown = 0x09

  let r_pong = 0x42
  and r_stats = 0x43
  and r_importance = 0x44
  and r_completeness = 0x45
  and r_partial = 0x46
  and r_top = 0x47
  and r_dependents = 0x48
  and r_error = 0x7f

  let w_phase b = function
    | Query.All -> Buffer.add_char b '\000'
    | Query.Init -> Buffer.add_char b '\001'
    | Query.Serving -> Buffer.add_char b '\002'

  let r_phase c =
    match Wire.r_byte c "phase" with
    | 0 -> Query.All
    | 1 -> Query.Init
    | 2 -> Query.Serving
    | n -> raise (Bad (Printf.sprintf "bad phase byte %d" n))

  let w_id b = function
    | None -> Buffer.add_char b '\000'
    | Some id ->
      Buffer.add_char b '\001';
      Wire.w_str b (Json.to_string id)

  let r_id c =
    match Wire.r_byte c "id" with
    | 0 -> None
    | 1 ->
      let s = Wire.r_str c "id" in
      (match Json.parse s with
       | Ok v -> Some v
       | Error msg -> raise (Bad ("bad id payload: " ^ msg)))
    | n -> raise (Bad (Printf.sprintf "bad id tag %d" n))

  let w_int_list b l =
    Wire.w_varint b (List.length l);
    List.iter (Wire.w_int b) l

  let r_int_list c what =
    let n = Wire.r_varint c what in
    if n > max_frame then raise (Bad ("oversized list in " ^ what));
    List.init n (fun _ -> Wire.r_int c what)

  let write_request b { rq_id; rq_op } =
    (match rq_op with
     | Ping ->
       Buffer.add_char b (Char.chr t_ping);
       w_id b rq_id
     | Stats ->
       Buffer.add_char b (Char.chr t_stats);
       w_id b rq_id
     | Importance { api; phase } ->
       Buffer.add_char b (Char.chr t_importance);
       w_id b rq_id;
       Wire.w_str b api;
       w_phase b phase
     | Completeness { syscalls; phase } ->
       Buffer.add_char b (Char.chr t_completeness);
       w_id b rq_id;
       w_int_list b syscalls;
       w_phase b phase
     | Partial_completeness { syscalls; phase; lo; hi } ->
       Buffer.add_char b (Char.chr t_partial);
       w_id b rq_id;
       w_int_list b syscalls;
       w_phase b phase;
       Wire.w_int b lo;
       Wire.w_int b hi
     | Top n ->
       Buffer.add_char b (Char.chr t_top);
       w_id b rq_id;
       Wire.w_int b n
     | Dependents { api; limit } ->
       Buffer.add_char b (Char.chr t_dependents);
       w_id b rq_id;
       Wire.w_str b api;
       (match limit with
        | None -> Buffer.add_char b '\000'
        | Some l ->
          Buffer.add_char b '\001';
          Wire.w_int b l)
     | Unknown s ->
       Buffer.add_char b (Char.chr t_unknown);
       w_id b rq_id;
       Wire.w_str b s)

  let encode_request r =
    let b = Buffer.create 64 in
    write_request b r;
    frame (Buffer.contents b)

  let write_response b { rs_id; rs_result } =
    (match rs_result with
     | Error { e_kind; e_msg } ->
       Buffer.add_char b (Char.chr r_error);
       w_id b rs_id;
       Wire.w_str b e_kind;
       Wire.w_str b e_msg
     | Ok reply ->
       (match reply with
        | Pong ->
          Buffer.add_char b (Char.chr r_pong);
          w_id b rs_id
        | Stats_r s ->
          Buffer.add_char b (Char.chr r_stats);
          w_id b rs_id;
          Wire.w_int b s.st_packages;
          Wire.w_int b s.st_apis;
          Wire.w_int b s.st_binaries;
          Wire.w_int b s.st_installs;
          Wire.w_varint b (List.length s.st_gauges);
          List.iter
            (fun (k, v) ->
              Wire.w_str b k;
              Wire.w_float b v)
            s.st_gauges;
          Wire.w_varint b (List.length s.st_hists);
          List.iter
            (fun (k, (h : Histogram.summary)) ->
              Wire.w_str b k;
              Wire.w_int b h.Histogram.h_count;
              Wire.w_float b h.Histogram.h_p50;
              Wire.w_float b h.Histogram.h_p95;
              Wire.w_float b h.Histogram.h_p99;
              Wire.w_float b h.Histogram.h_max)
            s.st_hists
        | Importance_r { api; phase; importance; unweighted } ->
          Buffer.add_char b (Char.chr r_importance);
          w_id b rs_id;
          Wire.w_str b api;
          w_phase b phase;
          Wire.w_float b importance;
          Wire.w_float b unweighted
        | Completeness_r { n_syscalls; phase; completeness } ->
          Buffer.add_char b (Char.chr r_completeness);
          w_id b rs_id;
          Wire.w_int b n_syscalls;
          w_phase b phase;
          Wire.w_float b completeness
        | Partial_r { lo; hi; num; den } ->
          Buffer.add_char b (Char.chr r_partial);
          w_id b rs_id;
          Wire.w_int b lo;
          Wire.w_int b hi;
          Wire.w_float b num;
          Wire.w_float b den
        | Top_r ranked ->
          Buffer.add_char b (Char.chr r_top);
          w_id b rs_id;
          Wire.w_varint b (List.length ranked);
          List.iter
            (fun (r : Query.ranked) ->
              Wire.w_int b r.Query.rk_nr;
              Wire.w_str b r.Query.rk_name;
              Wire.w_float b r.Query.rk_importance;
              Wire.w_float b r.Query.rk_unweighted_elf)
            ranked
        | Dependents_r { api; packages } ->
          Buffer.add_char b (Char.chr r_dependents);
          w_id b rs_id;
          Wire.w_str b api;
          Wire.w_varint b (List.length packages);
          List.iter
            (fun (name, prob) ->
              Wire.w_str b name;
              Wire.w_float b prob)
            packages))

  let encode_response r =
    let b = Buffer.create 64 in
    write_response b r;
    frame (Buffer.contents b)

  (* An id-less response frame is magic, length, tag, the [None] id
     byte, body; the id goes between the tag and the body. *)
  let splice_id id idless =
    let n = String.length idless in
    let p = Buffer.create (n + 16) in
    Buffer.add_char p idless.[5];
    w_id p (Some id);
    Buffer.add_substring p idless 7 (n - 7);
    frame (Buffer.contents p)

  (* Every decode path funnels through here: [Wire.Fail] (truncation,
     varint overflow) and [Bad] (tag/phase/id-shape violations) both
     become [Error], and trailing bytes are rejected so a frame is
     exactly one message. *)
  let decoding what f s =
    try
      let c = Wire.cursor s in
      let v = f c in
      if c.Wire.pos <> c.Wire.stop then
        Error (Printf.sprintf "trailing bytes in %s frame" what)
      else Ok v
    with
    | Wire.Fail e -> Error (Fmt.str "%a" Snapshot.pp_error e)
    | Bad msg -> Error msg

  let read_request c =
    let tag = Wire.r_byte c "request tag" in
    let rq_id = r_id c in
    let rq_op =
          if tag = t_ping then Ping
          else if tag = t_stats then Stats
          else if tag = t_importance then
            let api = Wire.r_str c "api" in
            let phase = r_phase c in
            Importance { api; phase }
          else if tag = t_completeness then
            let syscalls = r_int_list c "syscalls" in
            let phase = r_phase c in
            Completeness { syscalls; phase }
          else if tag = t_partial then
            let syscalls = r_int_list c "syscalls" in
            let phase = r_phase c in
            let lo = Wire.r_int c "lo" in
            let hi = Wire.r_int c "hi" in
            Partial_completeness { syscalls; phase; lo; hi }
          else if tag = t_top then Top (Wire.r_int c "n")
          else if tag = t_dependents then
            let api = Wire.r_str c "api" in
            let limit =
              match Wire.r_byte c "limit tag" with
              | 0 -> None
              | 1 -> Some (Wire.r_int c "limit")
              | n -> raise (Bad (Printf.sprintf "bad limit tag %d" n))
            in
            Dependents { api; limit }
          else if tag = t_unknown then Unknown (Wire.r_str c "op")
          else raise (Bad (Printf.sprintf "unknown request tag 0x%02x" tag))
    in
    { rq_id; rq_op }

  let decode_request s = decoding "request" read_request s

  let read_response c =
    let tag = Wire.r_byte c "response tag" in
    let rs_id = r_id c in
    let rs_result =
          if tag = r_error then
            let e_kind = Wire.r_str c "error kind" in
            let e_msg = Wire.r_str c "error msg" in
            Error { e_kind; e_msg }
          else if tag = r_pong then Ok Pong
          else if tag = r_stats then begin
            let st_packages = Wire.r_int c "n_packages" in
            let st_apis = Wire.r_int c "n_apis" in
            let st_binaries = Wire.r_int c "n_binaries" in
            let st_installs = Wire.r_int c "total_installs" in
            let ng = Wire.r_varint c "gauges" in
            if ng > max_frame then raise (Bad "oversized gauge list");
            let st_gauges =
              List.init ng (fun _ ->
                  let k = Wire.r_str c "gauge name" in
                  let v = Wire.r_float c "gauge value" in
                  (k, v))
            in
            let nh = Wire.r_varint c "hists" in
            if nh > max_frame then raise (Bad "oversized hist list");
            let st_hists =
              List.init nh (fun _ ->
                  let k = Wire.r_str c "hist name" in
                  let h_count = Wire.r_int c "hist count" in
                  let h_p50 = Wire.r_float c "hist p50" in
                  let h_p95 = Wire.r_float c "hist p95" in
                  let h_p99 = Wire.r_float c "hist p99" in
                  let h_max = Wire.r_float c "hist max" in
                  (k, { Histogram.h_count; h_p50; h_p95; h_p99; h_max }))
            in
            Ok (Stats_r { st_packages; st_apis; st_binaries; st_installs;
                          st_gauges; st_hists })
          end
          else if tag = r_importance then
            let api = Wire.r_str c "api" in
            let phase = r_phase c in
            let importance = Wire.r_float c "importance" in
            let unweighted = Wire.r_float c "unweighted" in
            Ok (Importance_r { api; phase; importance; unweighted })
          else if tag = r_completeness then
            let n_syscalls = Wire.r_int c "n_syscalls" in
            let phase = r_phase c in
            let completeness = Wire.r_float c "completeness" in
            Ok (Completeness_r { n_syscalls; phase; completeness })
          else if tag = r_partial then
            let lo = Wire.r_int c "lo" in
            let hi = Wire.r_int c "hi" in
            let num = Wire.r_float c "num" in
            let den = Wire.r_float c "den" in
            Ok (Partial_r { lo; hi; num; den })
          else if tag = r_top then begin
            let n = Wire.r_varint c "ranked" in
            if n > max_frame then raise (Bad "oversized ranking");
            let ranked =
              List.init n (fun _ ->
                  let rk_nr = Wire.r_int c "nr" in
                  let rk_name = Wire.r_str c "name" in
                  let rk_importance = Wire.r_float c "importance" in
                  let rk_unweighted_elf = Wire.r_float c "unweighted_elf" in
                  { Query.rk_nr; rk_name; rk_importance; rk_unweighted_elf })
            in
            Ok (Top_r ranked)
          end
          else if tag = r_dependents then begin
            let api = Wire.r_str c "api" in
            let n = Wire.r_varint c "packages" in
            if n > max_frame then raise (Bad "oversized package list");
            let packages =
              List.init n (fun _ ->
                  let name = Wire.r_str c "package" in
                  let prob = Wire.r_float c "prob" in
                  (name, prob))
            in
            Ok (Dependents_r { api; packages })
          end
          else raise (Bad (Printf.sprintf "unknown response tag 0x%02x" tag))
    in
    { rs_id; rs_result }

  let decode_response s = decoding "response" read_response s

  let input_frame_body ic =
    match really_input_string ic 4 with
    | exception End_of_file -> Error (`Bad "EOF inside frame header")
    | hdr ->
      let len =
        Char.code hdr.[0]
        lor (Char.code hdr.[1] lsl 8)
        lor (Char.code hdr.[2] lsl 16)
        lor (Char.code hdr.[3] lsl 24)
      in
      if len > max_frame then
        Error (`Bad (Printf.sprintf "frame length %d exceeds limit" len))
      else (
        match really_input_string ic len with
        | exception End_of_file -> Error (`Bad "EOF inside frame payload")
        | payload -> Ok payload)

  let input_frame ic =
    match input_char ic with
    | exception End_of_file -> Error `Eof
    | c when c = magic -> input_frame_body ic
    | c ->
      Error (`Bad (Printf.sprintf "bad frame magic 0x%02x" (Char.code c)))
end

(* ------------------------------------------------------------------ *)
(* Wire bytes                                                          *)
(* ------------------------------------------------------------------ *)

(* The canonicalization point: the typed request already collapsed
   field order, unknown fields and default-phase spellings, so its
   deterministic id-less encoding is the key. The binary one, because
   a cache probe pays for it on every request: varints cost far less
   than printing each syscall number as JSON. *)
let canonical_key request =
  let b = Buffer.create 64 in
  Bin.write_request b { request with rq_id = None };
  Buffer.contents b

let encode_response codec r =
  match codec with
  | Json_lines -> Json.to_string (json_of_response r) ^ "\n"
  | Binary -> Bin.encode_response r

(* The id is the first field of a JSON response and the first thing
   after the tag of a binary one, and nothing else depends on it. *)
let splice_id codec id idless =
  match id with
  | None -> idless
  | Some id ->
    (match codec with
     | Binary -> Bin.splice_id id idless
     | Json_lines ->
       let id = Json.to_string id in
       let n = String.length idless in
       let b = Buffer.create (n + String.length id + 6) in
       Buffer.add_string b "{\"id\":";
       Buffer.add_string b id;
       if idless.[1] <> '}' then Buffer.add_char b ',';
       Buffer.add_substring b idless 1 (n - 1);
       Buffer.contents b)
