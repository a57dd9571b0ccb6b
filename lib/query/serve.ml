(** See the interface. The evaluator is deliberately the only place
    that touches {!Query}: the wire layer ({!Protocol}) cannot
    evaluate, and this module cannot parse — one direction each. *)

module Stage = Lapis_perf.Stage
module Histogram = Lapis_perf.Histogram
module P = Protocol

type cache = (P.codec * string, string) Lru.t

let err kind msg = Error { P.e_kind = kind; e_msg = msg }

let eval ?(gauges = fun () -> []) idx (req : P.req) :
    (P.reply, P.err) result =
  match req with
  | P.Ping -> Ok P.Pong
  | P.Stats ->
    Ok
      (P.Stats_r
         {
           st_packages = Query.n_packages idx;
           st_apis = Query.n_apis idx;
           st_binaries = Query.n_binaries idx;
           st_installs = Query.total_installs idx;
           st_gauges = gauges ();
           st_hists = Histogram.all ();
         })
  | P.Importance { api; phase } ->
    (match Query.api_of_string api with
     | Error msg -> err P.bad_api msg
     | Ok api ->
       Ok
         (P.Importance_r
            {
              api = Query.api_to_string api;
              phase;
              importance = Query.importance ~phase idx api;
              unweighted = Query.unweighted idx api;
            }))
  | P.Completeness { syscalls; phase } ->
    Ok
      (P.Completeness_r
         {
           n_syscalls = List.length syscalls;
           phase;
           completeness = Query.eval_syscalls ~phase idx syscalls;
         })
  | P.Partial_completeness { syscalls; phase; lo; hi } ->
    let num, den = Query.eval_syscalls_partial ~phase idx syscalls ~lo ~hi in
    Ok (P.Partial_r { lo; hi; num; den })
  | P.Top n -> Ok (P.Top_r (Query.top_n idx n))
  | P.Dependents { api; limit } ->
    (match Query.api_of_string api with
     | Error msg -> err P.bad_api msg
     | Ok api ->
       Ok
         (P.Dependents_r
            {
              api = Query.api_to_string api;
              packages = Query.dependents_ranked ?limit idx api;
            }))
  | P.Unknown other ->
    err P.unknown_op (Printf.sprintf "unknown op %S" other)

let handle_req ?gauges idx req =
  let name = "serve:" ^ P.op_name req in
  let t0 = Stage.now_ns () in
  let result = Stage.time name (fun () -> eval ?gauges idx req) in
  Histogram.observe_ns name (Int64.to_int (Int64.sub (Stage.now_ns ()) t0));
  result

(* [stats] samples live gauges and histograms — not a pure function
   of the index, so not memoized. Everything else (errors included)
   is. *)
let cacheable = function
  | P.Stats -> false
  | _ -> true

let handle_request ?gauges idx (request : P.request) : P.response =
  { P.rs_id = request.P.rq_id; rs_result = handle_req ?gauges idx request.P.rq_op }

(* A hit is one lookup plus the id spliced back in: no evaluation and
   no encoding. *)
let answer ~cache ?gauges idx codec (request : P.request) =
  if cacheable request.P.rq_op then begin
    let key = (codec, P.canonical_key request) in
    let idless =
      match Lru.find cache key with
      | Some bytes -> bytes
      | None ->
        let bytes =
          P.encode_response codec
            { P.rs_id = None; rs_result = handle_req ?gauges idx request.P.rq_op }
        in
        Lru.add cache key bytes;
        bytes
    in
    P.splice_id codec request.P.rq_id idless
  end
  else P.encode_response codec (handle_request ?gauges idx request)

let handle_line ?gauges idx (line : string) : string =
  Stage.incr "serve:requests";
  let response =
    match Json.parse line with
    | Error msg -> P.error_response ~kind:P.parse_error msg
    | Ok j ->
      (match P.request_of_json j with
       | Error error -> error
       | Ok request -> handle_request ?gauges idx request)
  in
  Json.to_string (P.json_of_response response)

let loop idx ic oc =
  let rec go () =
    match In_channel.input_line ic with
    | None -> ()
    | Some line ->
      if String.trim line <> "" then begin
        Out_channel.output_string oc (handle_line idx line);
        Out_channel.output_char oc '\n';
        Out_channel.flush oc
      end;
      go ()
  in
  go ()
