(* Tests for the wire protocol: JSON and binary codec round-trips
   (example-based and property-based), total decoding under
   truncation and bit flips, retired binary tags, cross-codec
   canonical keys, and the latency histogram the [stats] op reports.
   Everything here is index-free — the protocol is pure data. *)

module P = Core.Query.Protocol
module Json = Core.Query.Json
module Histogram = Core.Perf.Histogram

let parse_exn s =
  match Json.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

(* --- representative values ------------------------------------------ *)

let sample_requests =
  [ { P.rq_id = None; rq_op = P.Ping };
    { P.rq_id = Some (Json.Num 7.0); rq_op = P.Ping };
    { P.rq_id = Some (Json.Str "abc"); rq_op = P.Stats };
    {
      P.rq_id = None;
      rq_op = P.Importance { api = "read"; phase = Core.Query.Engine.Init };
    };
    {
      P.rq_id = Some (Json.Num 3.0);
      rq_op =
        P.Completeness
          { syscalls = [ 0; 1; 2 ]; phase = Core.Query.Engine.All };
    };
    {
      P.rq_id = Some (Json.Num 123456.0);
      rq_op =
        P.Partial_completeness
          {
            syscalls = [ 5; 9; 60 ];
            phase = Core.Query.Engine.Serving;
            lo = 10;
            hi = 250;
          };
    };
    { P.rq_id = None; rq_op = P.Top 10 };
    {
      P.rq_id = Some (Json.Bool true);
      rq_op = P.Dependents { api = "syscall:1"; limit = Some 5 };
    };
    {
      P.rq_id = None;
      rq_op = P.Dependents { api = "mmap"; limit = None };
    };
    { P.rq_id = Some Json.Null; rq_op = P.Unknown "explode" }
  ]

let sample_responses =
  [ { P.rs_id = Some (Json.Num 1.0); rs_result = Ok P.Pong };
    { P.rs_id = None; rs_result = Ok P.Pong };
    {
      P.rs_id = Some (Json.Str "x");
      rs_result =
        Ok
          (P.Stats_r
             {
               st_packages = 200;
               st_apis = 321;
               st_binaries = 456;
               st_installs = 100000;
               st_gauges = [ ("queue_depth", 3.0); ("cache_hits", 17.0) ];
               st_hists =
                 [ ( "serve:ping",
                     {
                       Histogram.h_count = 12;
                       h_p50 = 1000.0;
                       h_p95 = 2000.0;
                       h_p99 = 3000.0;
                       h_max = 4096.0;
                     } ) ];
             });
    };
    {
      P.rs_id = None;
      rs_result =
        Ok
          (P.Importance_r
             {
               api = "read";
               phase = Core.Query.Engine.All;
               importance = 0.875;
               unweighted = 0.5;
             });
    };
    {
      P.rs_id = Some (Json.Num 2.0);
      rs_result =
        Ok
          (P.Completeness_r
             {
               n_syscalls = 3;
               phase = Core.Query.Engine.Init;
               completeness = 0.25;
             });
    };
    {
      P.rs_id = Some (Json.Num 3.0);
      rs_result =
        Ok (P.Partial_r { lo = 0; hi = 100; num = 123.5; den = 456.25 });
    };
    {
      P.rs_id = None;
      rs_result =
        Ok
          (P.Top_r
             [ {
                 Core.Query.Engine.rk_nr = 1;
                 rk_name = "write";
                 rk_importance = 0.75;
                 rk_unweighted_elf = 0.5;
               };
               {
                 Core.Query.Engine.rk_nr = 0;
                 rk_name = "read";
                 rk_importance = 0.5;
                 rk_unweighted_elf = 0.25;
               }
             ]);
    };
    {
      P.rs_id = Some (Json.Num 4.0);
      rs_result =
        Ok
          (P.Dependents_r
             {
               api = "syscall:0";
               packages = [ ("pkg-a", 0.5); ("pkg-b", 0.125) ];
             });
    };
    P.error_response ~id:(Json.Num 9.0) ~kind:P.degraded
      "shard 127.0.0.1:7071 unavailable: timeout";
    P.error_response ~kind:P.overloaded "router queue full"
  ]

(* --- JSON codec round-trips ----------------------------------------- *)

let test_json_request_roundtrip () =
  List.iter
    (fun r ->
      let s = Json.to_string (P.json_of_request r) in
      match P.request_of_json (parse_exn s) with
      | Ok r' when r' = r -> ()
      | Ok _ -> Alcotest.failf "JSON request changed in flight: %s" s
      | Error _ -> Alcotest.failf "canonical spelling rejected: %s" s)
    sample_requests

let test_json_response_roundtrip () =
  (* floats above were chosen exactly representable in the JSON
     printer, so equality is exact *)
  List.iter
    (fun r ->
      let j = P.json_of_response r in
      match P.response_of_json j with
      | Ok r' when r' = r -> ()
      | Ok _ ->
        Alcotest.failf "JSON response changed in flight: %s"
          (Json.to_string j)
      | Error e ->
        Alcotest.failf "own spelling rejected (%s): %s" e (Json.to_string j))
    sample_responses

let test_parse_error_goldens () =
  (* the stable error kinds clients match on *)
  let kind_of s =
    match P.request_of_json (parse_exn s) with
    | Ok r -> Alcotest.failf "%S parsed as %s" s (P.op_name r.P.rq_op)
    | Error resp -> (
      match resp.P.rs_result with
      | Error e -> e.P.e_kind
      | Ok _ -> Alcotest.fail "error case carried an ok reply")
  in
  Alcotest.(check string) "missing op" P.bad_request
    (kind_of {|{"noop":1}|});
  Alcotest.(check string) "missing api" P.bad_request
    (kind_of {|{"op":"importance"}|});
  Alcotest.(check string) "bad phase" P.bad_phase
    (kind_of {|{"op":"completeness","syscalls":[1],"phase":"warmup"}|});
  Alcotest.(check string) "non-array syscalls" P.bad_request
    (kind_of {|{"op":"completeness","syscalls":"read"}|});
  Alcotest.(check string) "partial range not ints" P.bad_request
    (kind_of {|{"op":"partial-completeness","syscalls":[1],"lo":0}|})

let test_cross_codec_key () =
  (* the cache key must not depend on which codec carried the request *)
  List.iter
    (fun r ->
      let payload s = String.sub s 5 (String.length s - 5) in
      match P.Bin.decode_request (payload (P.Bin.encode_request r)) with
      | Ok r' ->
        Alcotest.(check string)
          (Printf.sprintf "key of %s" (P.op_name r.P.rq_op))
          (P.canonical_key r) (P.canonical_key r')
      | Error e -> Alcotest.failf "binary re-decode failed: %s" e)
    sample_requests

(* --- binary codec ---------------------------------------------------- *)

let payload s = String.sub s 5 (String.length s - 5)

let test_bin_request_roundtrip () =
  List.iter
    (fun r ->
      match P.Bin.decode_request (payload (P.Bin.encode_request r)) with
      | Ok r' when r' = r -> ()
      | Ok _ ->
        Alcotest.failf "binary request changed in flight: %s"
          (P.op_name r.P.rq_op)
      | Error e ->
        Alcotest.failf "binary request rejected (%s): %s" e
          (P.op_name r.P.rq_op))
    sample_requests

let test_bin_response_roundtrip () =
  List.iter
    (fun r ->
      match P.Bin.decode_response (payload (P.Bin.encode_response r)) with
      | Ok r' when r' = r -> ()
      | Ok _ -> Alcotest.fail "binary response changed in flight"
      | Error e -> Alcotest.failf "binary response rejected: %s" e)
    sample_responses

let test_bin_direction_confusion () =
  (* request and response tags are disjoint ranges: decoding a frame
     in the wrong direction must fail loudly, not mis-parse *)
  List.iter
    (fun r ->
      match P.Bin.decode_response (payload (P.Bin.encode_request r)) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a request decoded as a response")
    sample_requests;
  List.iter
    (fun r ->
      match P.Bin.decode_request (payload (P.Bin.encode_response r)) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a response decoded as a request")
    sample_responses

let test_bin_frame_channel () =
  (* input_frame over a byte stream: clean frames in sequence, then a
     clean EOF; wrong magic and mid-frame truncation are [`Bad] *)
  let with_bytes s f =
    let path = Filename.temp_file "lapis-proto" ".bin" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc -> output_string oc s);
        In_channel.with_open_bin path f)
  in
  let f1 = P.Bin.encode_request (List.hd sample_requests) in
  let f2 = P.Bin.encode_response (List.hd sample_responses) in
  with_bytes (f1 ^ f2) (fun ic ->
      (match P.Bin.input_frame ic with
       | Ok p -> Alcotest.(check string) "frame 1 payload" (payload f1) p
       | Error _ -> Alcotest.fail "frame 1 unreadable");
      (match P.Bin.input_frame ic with
       | Ok p -> Alcotest.(check string) "frame 2 payload" (payload f2) p
       | Error _ -> Alcotest.fail "frame 2 unreadable");
      match P.Bin.input_frame ic with
      | Error `Eof -> ()
      | Ok _ -> Alcotest.fail "phantom frame after the stream"
      | Error (`Bad m) -> Alcotest.failf "clean EOF read as Bad: %s" m);
  with_bytes ("GET / HTTP/1.0" ^ f1) (fun ic ->
      match P.Bin.input_frame ic with
      | Error (`Bad _) -> ()
      | _ -> Alcotest.fail "wrong magic must be Bad");
  for cut = 1 to String.length f1 - 1 do
    with_bytes (String.sub f1 0 cut) (fun ic ->
        match P.Bin.input_frame ic with
        | Error (`Bad _) -> ()
        | Error `Eof -> Alcotest.failf "mid-frame EOF at %d read as Eof" cut
        | Ok _ -> Alcotest.failf "truncation at %d produced a frame" cut)
  done

(* --- the retired tags -----------------------------------------------

   Tags 0x0a (request) and 0x49 (response) carried the retired [batch]
   op, 0x01 and 0x41 the retired [hello]. They stay unassigned: a peer
   still sending one gets a structured parse error in its own codec,
   never another op's answer. *)

let test_retired_batch_tag () =
  let ping = payload (P.Bin.encode_request { P.rq_id = None; rq_op = P.Ping }) in
  (* a ping payload with its tag byte replaced *)
  let retired tag =
    String.make 1 (Char.chr tag) ^ String.sub ping 1 (String.length ping - 1)
  in
  List.iter
    (fun (rq_tag, rs_tag) ->
      (match P.Bin.decode_request (retired rq_tag) with
       | Error msg ->
         Alcotest.(check string) "request tag"
           (Printf.sprintf "unknown request tag 0x%02x" rq_tag)
           msg
       | Ok _ -> Alcotest.failf "a 0x%02x frame decoded as a request" rq_tag);
      (match P.Bin.decode_response (retired rs_tag) with
       | Error _ -> ()
       | Ok _ -> Alcotest.failf "a 0x%02x frame decoded as a response" rs_tag);
      let answered =
        Core.Query.Frontend.reply
          (fun _ -> Alcotest.fail "the handler saw a retired frame")
          (Core.Query.Frontend.Frame (retired rq_tag))
      in
      match P.Bin.decode_response (payload answered) with
      | Ok { P.rs_id = None; rs_result = Error e } ->
        Alcotest.(check string) "answered kind" P.parse_error e.P.e_kind
      | Ok _ -> Alcotest.failf "a 0x%02x frame was answered as a success" rq_tag
      | Error e -> Alcotest.failf "undecodable answer: %s" e)
    [ (0x0a, 0x49); (0x01, 0x41) ]

let test_bin_truncation_total () =
  (* every prefix of every payload decodes to a value, never raises *)
  let check_total decode what s =
    for cut = 0 to String.length s do
      match decode (String.sub s 0 cut) with
      | (Ok _ | Error _) -> ()
      | exception e ->
        Alcotest.failf "%s raised %s at prefix %d" what
          (Printexc.to_string e) cut
    done
  in
  List.iter
    (fun r ->
      check_total P.Bin.decode_request "request decode"
        (payload (P.Bin.encode_request r)))
    sample_requests;
  List.iter
    (fun r ->
      check_total P.Bin.decode_response "response decode"
        (payload (P.Bin.encode_response r)))
    sample_responses

(* --- property tests -------------------------------------------------- *)

let gen_phase =
  QCheck2.Gen.oneofl
    [ Core.Query.Engine.All; Core.Query.Engine.Init;
      Core.Query.Engine.Serving ]

let gen_id =
  QCheck2.Gen.(
    oneof
      [ return None;
        map (fun n -> Some (Json.Num (float_of_int n))) (int_bound 1000000);
        map (fun s -> Some (Json.Str s)) (string_size (int_bound 8)) ])

let gen_req =
  QCheck2.Gen.(
    oneof
      [ return P.Ping;
        return P.Stats;
        map2
          (fun api phase -> P.Importance { api; phase })
          (oneofl [ "read"; "mmap"; "syscall:7"; "not-an-api" ])
          gen_phase;
        map2
          (fun syscalls phase -> P.Completeness { syscalls; phase })
          (list_size (int_bound 40) (int_bound 447))
          gen_phase;
        map
          (fun (syscalls, phase, lo, len) ->
            P.Partial_completeness
              { syscalls; phase; lo; hi = lo + len })
          (quad
             (list_size (int_bound 40) (int_bound 447))
             gen_phase (int_bound 500) (int_bound 500));
        map (fun n -> P.Top n) (int_bound 64);
        map2
          (fun api limit -> P.Dependents { api; limit })
          (oneofl [ "read"; "syscall:0" ])
          (opt (int_bound 20));
        map (fun s -> P.Unknown ("zz-" ^ s)) (string_size (int_bound 6)) ])

let gen_request =
  QCheck2.Gen.map2 (fun rq_id rq_op -> { P.rq_id; rq_op }) gen_id gen_req

let prop_codecs_agree =
  QCheck2.Test.make ~count:300 ~name:"both codecs round-trip and agree"
    gen_request (fun r ->
      let via_json =
        match
          P.request_of_json
            (parse_exn (Json.to_string (P.json_of_request r)))
        with
        | Ok r' -> r'
        | Error _ -> QCheck2.Test.fail_report "JSON rejected its own output"
      in
      let via_bin =
        match P.Bin.decode_request (payload (P.Bin.encode_request r)) with
        | Ok r' -> r'
        | Error e -> QCheck2.Test.fail_reportf "binary rejected: %s" e
      in
      via_json = r && via_bin = r
      && P.canonical_key via_json = P.canonical_key via_bin)

let prop_bitflip_never_raises =
  QCheck2.Test.make ~count:300 ~name:"bit-flipped frames never raise"
    QCheck2.Gen.(triple gen_request (int_bound 10000) (int_bound 7))
    (fun (r, pos, bit) ->
      let s = Bytes.of_string (payload (P.Bin.encode_request r)) in
      if Bytes.length s = 0 then true
      else begin
        let pos = pos mod Bytes.length s in
        Bytes.set s pos
          (Char.chr (Char.code (Bytes.get s pos) lxor (1 lsl bit)));
        let s = Bytes.to_string s in
        match (P.Bin.decode_request s, P.Bin.decode_response s) with
        | (Ok _ | Error _), (Ok _ | Error _) -> true
        | exception e ->
          QCheck2.Test.fail_reportf "decode raised %s"
            (Printexc.to_string e)
      end)

(* --- histograms ------------------------------------------------------ *)

let test_histogram_quantiles () =
  let h = Histogram.create () in
  Alcotest.(check (float 0.0)) "empty p99" 0.0 (Histogram.quantile h 0.99);
  for v = 1 to 1000 do
    Histogram.observe h v
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  let close what got want =
    (* bucket representative error: 16 linear sub-buckets per power of
       two keeps any value within ~6.25% of its bucket *)
    if Float.abs (got -. want) /. want > 0.07 then
      Alcotest.failf "%s: %.1f not within 7%% of %.1f" what got want
  in
  let s = Histogram.summary h in
  close "p50" s.Histogram.h_p50 500.0;
  close "p95" s.Histogram.h_p95 950.0;
  close "p99" s.Histogram.h_p99 990.0;
  Alcotest.(check (float 0.0)) "max is exact" 1000.0 s.Histogram.h_max;
  (* extremes clamp to observed values *)
  Alcotest.(check (float 0.0)) "q=0 is the min" 1.0
    (Histogram.quantile h 0.0);
  Alcotest.(check (float 0.0)) "q=1 is the max" 1000.0
    (Histogram.quantile h 1.0)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.observe a) [ 10; 20; 30 ];
  List.iter (Histogram.observe b) [ 1000; 2000 ];
  Histogram.merge_into ~into:a b;
  Alcotest.(check int) "merged count" 5 (Histogram.count a);
  Alcotest.(check int) "source unchanged" 2 (Histogram.count b);
  Alcotest.(check (float 0.0)) "merged max" 2000.0
    (Histogram.quantile a 1.0)

let prop_histogram_bounds =
  QCheck2.Test.make ~count:200 ~name:"quantiles stay within observed range"
    QCheck2.Gen.(list_size (int_range 1 200) (int_bound 5_000_000))
    (fun vs ->
      let h = Histogram.create () in
      List.iter (Histogram.observe h) vs;
      let lo = float_of_int (List.fold_left min max_int vs) in
      let hi = float_of_int (List.fold_left max 0 vs) in
      List.for_all
        (fun q ->
          let v = Histogram.quantile h q in
          v >= lo && v <= hi)
        [ 0.0; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ])

(* The number printer's integer fast path must print exactly what
   [Printf "%.0f"] printed: integer-valued floats from both signs up to
   the 1e15 cut, with the edges and -0.0 drawn often. *)
let gen_integral =
  QCheck2.Gen.(
    let edge = 1e15 -. 1.0 in
    oneof
      [ map Float.of_int (int_range (-1000) 1000);
        map Float.round (float_range (-.edge) edge);
        oneofl [ 0.0; -0.0; edge; -.edge; 1.0; -1.0; 2e14; -2e14 ] ])

let prop_integral_numbers_print_as_printf =
  QCheck2.Test.make ~count:5000
    ~name:"integer-valued numbers print as Printf %.0f did"
    ~print:(Printf.sprintf "%h") gen_integral (fun f ->
      Json.to_string (Json.Num f) = Printf.sprintf "%.0f" f)

let () =
  Alcotest.run "protocol"
    [ ( "json",
        [ Alcotest.test_case "request round-trip" `Quick
            test_json_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick
            test_json_response_roundtrip;
          Alcotest.test_case "error kinds" `Quick test_parse_error_goldens;
          Alcotest.test_case "cross-codec cache key" `Quick
            test_cross_codec_key;
          QCheck_alcotest.to_alcotest prop_integral_numbers_print_as_printf ] );
      ( "binary",
        [ Alcotest.test_case "request round-trip" `Quick
            test_bin_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick
            test_bin_response_roundtrip;
          Alcotest.test_case "direction confusion" `Quick
            test_bin_direction_confusion;
          Alcotest.test_case "frame channel" `Quick test_bin_frame_channel;
          Alcotest.test_case "retired batch tag is a parse error" `Quick
            test_retired_batch_tag;
          Alcotest.test_case "truncation total" `Quick
            test_bin_truncation_total ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_codecs_agree;
          QCheck_alcotest.to_alcotest prop_bitflip_never_raises ] );
      ( "histogram",
        [ Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          QCheck_alcotest.to_alcotest prop_histogram_bounds ] )
    ]
