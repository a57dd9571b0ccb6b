(* Tests for the benchmark's pure core: percentile and quartile math,
   the ladder bisection, the integer-ns open-loop schedule, the
   regression-bound rule, the response checkers, and the agreement of
   the metric catalog with BENCHMARK.json. *)

module H = Lapis_bench.Harness
module P = Core.Query.Protocol
module Json = Core.Query.Json
module Query = Core.Query.Engine

let float_eq = Alcotest.float 1e-12
let better_name = function H.Lower -> "lower" | H.Higher -> "higher"

let test_percentile () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check float_eq "p50" 50.0 (H.percentile a 0.5);
  Alcotest.check float_eq "p99" 99.0 (H.percentile a 0.99);
  Alcotest.check float_eq "p100" 100.0 (H.percentile a 1.0);
  Alcotest.check float_eq "p0 is the minimum" 1.0 (H.percentile a 0.0);
  Alcotest.check float_eq "empty" 0.0 (H.percentile [||] 0.5);
  Alcotest.check float_eq "odd median" 3.0 (H.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check float_eq "even median" 2.5 (H.median [ 4.0; 1.0; 2.0; 3.0 ])

(* Reference values from Python's statistics.quantiles(values, n=4). *)
let test_quartiles () =
  let check name l (a, b, c) =
    let q1, q2, q3 = H.quartiles l in
    Alcotest.check float_eq (name ^ " q1") a q1;
    Alcotest.check float_eq (name ^ " q2") b q2;
    Alcotest.check float_eq (name ^ " q3") c q3
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "two values" [ 3.0; 1.0 ] (0.5, 2.0, 3.5);
  check "unsorted five" [ 5.0; 1.0; 4.0; 2.0; 3.0 ] (1.5, 3.0, 4.5);
  Alcotest.check float_eq "spread" ((8.25 -. 2.75) /. 5.5)
    (H.spread (List.init 10 (fun i -> float_of_int (i + 1))))

let test_ladder () =
  let rungs = H.ladder ~lo:10_000.0 ~hi:80_000.0 ~step:1.15 in
  Alcotest.(check int) "15 rungs from 10k to 80k" 15 (Array.length rungs);
  Alcotest.check float_eq "first rung" 10_000.0 rungs.(0);
  Array.iteri
    (fun i r ->
      if i > 0 then Alcotest.check (Alcotest.float 1e-6) "x1.15" (rungs.(i - 1) *. 1.15) r)
    rungs;
  let capacity = 31_000.0 in
  let best, probes = H.bisect rungs ~passes:(fun r -> r <= capacity) in
  let want = Array.fold_left (fun a r -> if r <= capacity then r else a) 0.0 rungs in
  Alcotest.(check (option (float 1e-9))) "highest passing rung" (Some want) best;
  Alcotest.(check bool) "at most 4 probes" true (List.length probes <= 4);
  List.iter
    (fun (r, ok) -> Alcotest.(check bool) "probe verdicts" (r <= capacity) ok)
    probes;
  Alcotest.(check (option (float 1e-9))) "nothing passes" None
    (fst (H.bisect rungs ~passes:(fun _ -> false)));
  Alcotest.(check (option (float 1e-9))) "everything passes"
    (Some rungs.(14)) (fst (H.bisect rungs ~passes:(fun _ -> true)));
  Alcotest.(check bool) "p99 over the limit fails" false
    (H.probe_passes ~p99_limit_ms:5.0 ~p99_ms:5.1 ~failed:0 ~offered:100.0 ~achieved:100.0);
  Alcotest.(check bool) "a failure fails" false
    (H.probe_passes ~p99_limit_ms:5.0 ~p99_ms:1.0 ~failed:1 ~offered:100.0 ~achieved:100.0);
  Alcotest.(check bool) "falling behind fails" false
    (H.probe_passes ~p99_limit_ms:5.0 ~p99_ms:1.0 ~failed:0 ~offered:100.0 ~achieved:98.9);
  Alcotest.(check bool) "a clean probe passes" true
    (H.probe_passes ~p99_limit_ms:5.0 ~p99_ms:5.0 ~failed:0 ~offered:100.0 ~achieved:99.0)

let test_schedule () =
  let period = H.period_ns 3000.0 in
  Alcotest.(check int) "3k/s period" 333_333 period;
  Alcotest.(check int) "slot k is due at exactly k periods" (1_000_000 * period)
    (H.due_ns ~period 1_000_000);
  Alcotest.(check int) "slot 0 is due at the start" 1 (H.slots_due ~period 0);
  Alcotest.(check int) "nothing due before the start" 0 (H.slots_due ~period (-1));
  Alcotest.(check int) "one period later" 1 (H.slots_due ~period (period - 1));
  Alcotest.(check int) "two slots" 2 (H.slots_due ~period period);
  (* over a 10 s phase the schedule covers the phase and never drifts *)
  List.iter
    (fun rate ->
      let period = H.period_ns rate in
      let n = H.slots_in ~period 10_000_000_000 in
      Alcotest.(check bool) "within the phase" true (H.due_ns ~period (n - 1) < 10_000_000_000);
      Alcotest.(check bool) "offered rate kept" true
        (Float.abs ((float_of_int n /. 10.0) -. rate) /. rate < 1e-4);
      for k = 0 to 1000 do
        let t = H.due_ns ~period k in
        Alcotest.(check int) "a slot is due at its own time" (k + 1) (H.slots_due ~period t)
      done)
    [ 1_000.0; 3_000.0; 20_000.0; 7_777.0 ]

let test_bound () =
  Alcotest.(check bool) "within a lower-better bound" false
    (H.regressed ~better:H.Lower ~bound:0.1 ~base:10.0 ~cur:10.9);
  Alcotest.(check bool) "past a lower-better bound" true
    (H.regressed ~better:H.Lower ~bound:0.1 ~base:10.0 ~cur:11.1);
  Alcotest.(check bool) "better is never a regression" false
    (H.regressed ~better:H.Lower ~bound:0.1 ~base:10.0 ~cur:1.0);
  Alcotest.(check bool) "within a higher-better bound" false
    (H.regressed ~better:H.Higher ~bound:0.1 ~base:100.0 ~cur:91.0);
  Alcotest.(check bool) "past a higher-better bound" true
    (H.regressed ~better:H.Higher ~bound:0.1 ~base:100.0 ~cur:89.0)

let completeness v =
  { P.rs_id = None;
    rs_result = Ok (P.Completeness_r { n_syscalls = 3; phase = Query.All; completeness = v }) }

let test_json_checker () =
  let v = 0.4375123456789 in
  let expected = H.json_expected (completeness v) in
  let line id r = Json.to_string (P.json_of_response { r with P.rs_id = Some (Json.Num (float_of_int id)) }) in
  Alcotest.(check bool) "the in-process answer passes" true
    (H.check_json_line ~id:7 ~expected (line 7 (completeness v)) = Ok ());
  Alcotest.(check bool) "off by 1e-9 is rejected" true
    (Result.is_error (H.check_json_line ~id:7 ~expected (line 7 (completeness (v +. 1e-9)))));
  Alcotest.(check bool) "an out-of-order id is rejected" true
    (Result.is_error (H.check_json_line ~id:7 ~expected (line 8 (completeness v))));
  let req = { P.rq_id = None; rq_op = P.Completeness { syscalls = [ 0; 1; 2 ]; phase = Query.All } } in
  match Json.parse (H.json_request ~id:42 req) with
  | Ok j ->
    (match P.request_of_json j with
     | Ok r ->
       Alcotest.(check bool) "spliced request keeps its id" true (r.P.rq_id = Some (Json.Num 42.0));
       Alcotest.(check bool) "and its op" true (r.P.rq_op = req.P.rq_op)
     | Error _ -> Alcotest.fail "spliced request does not decode")
  | Error m -> Alcotest.failf "spliced request is not JSON: %s" m

let test_bin_checker () =
  let v = 0.4375123456789 in
  let reply id v = { (completeness v) with P.rs_id = Some (Json.Num (float_of_int id)) } in
  let check id r =
    H.check_completeness ~id ~phase:Query.All ~n_syscalls:3 ~expected:v ~tol:1e-12 r
  in
  Alcotest.(check bool) "within 1e-12 passes" true (check 3 (reply 3 (v +. 1e-13)) = Ok ());
  Alcotest.(check bool) "off by 1e-9 is rejected" true (Result.is_error (check 3 (reply 3 (v +. 1e-9))));
  Alcotest.(check bool) "an out-of-order id is rejected" true (Result.is_error (check 3 (reply 4 v)));
  let partial id num =
    { P.rs_id = Some (Json.Num (float_of_int id));
      rs_result = Ok (P.Partial_r { lo = 0; hi = 10; num; den = 2.0 }) }
  in
  Alcotest.(check bool) "partial within 1e-12 passes" true
    (H.check_partial ~id:1 ~expected:(0.5, 2.0) ~tol:1e-12 (partial 1 0.5) = Ok ());
  Alcotest.(check bool) "partial off by 1e-9 is rejected" true
    (Result.is_error (H.check_partial ~id:1 ~expected:(0.5, 2.0) ~tol:1e-12 (partial 1 (0.5 +. 1e-9))))

(* BENCHMARK.json must name exactly the catalog the runner prints. *)
let test_catalog () =
  let j =
    match Json.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error m -> Alcotest.failf "BENCHMARK.json: %s" m
  in
  let list key =
    match Json.member key j with Some (Json.Arr l) -> l | _ -> Alcotest.failf "no %s" key
  in
  let str k m = match Json.member k m with Some (Json.Str s) -> s | _ -> Alcotest.failf "no %s" k in
  let e2e = list "end_to_end" in
  Alcotest.(check (list (triple string string string))) "end-to-end metrics"
    (List.map (fun (n, u, b) -> (n, u, better_name b)) H.end_to_end)
    (List.map (fun m -> (str "name" m, str "unit" m, str "better" m)) e2e);
  let bound m = match Json.member "bound" m with Some (Json.Num b) -> b | _ -> nan in
  List.iter
    (fun m -> Alcotest.(check bool) "bound in (0, 0.25]" true (bound m > 0.0 && bound m <= 0.25))
    e2e;
  let setup = List.find (fun m -> str "name" m = "setup_s") e2e in
  List.iter
    (fun m -> Alcotest.(check bool) "setup_s has the largest bound" true (bound m <= bound setup))
    e2e;
  Alcotest.(check (list (triple string string string))) "per-layer metrics"
    (List.map (fun (n, u, b) -> (n, u, better_name b)) H.per_layer)
    (List.map (fun m -> (str "name" m, str "unit" m, str "better" m)) (list "per_layer"));
  let line =
    H.result_line { H.correct = true; attempted = 3; failed = 0; metrics = [ ("setup_s", 1.25) ] }
  in
  Alcotest.(check string) "result line"
    {|{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":1.25,"unit":"s"}}}|}
    line

let () =
  Alcotest.run "benchmark harness"
    [ ( "harness",
        [ Alcotest.test_case "percentiles" `Quick test_percentile;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "ladder bisection" `Quick test_ladder;
          Alcotest.test_case "open-loop schedule" `Quick test_schedule;
          Alcotest.test_case "regression bound" `Quick test_bound;
          Alcotest.test_case "json checker" `Quick test_json_checker;
          Alcotest.test_case "binary checker" `Quick test_bin_checker;
          Alcotest.test_case "catalog" `Quick test_catalog ] ) ]
