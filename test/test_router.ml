(* Tests for the scatter/gather router: in-process {!Server} shards on
   ephemeral ports behind a {!Router}, checking the routed
   completeness sum against the single-process evaluator (<= 1e-12),
   structured degradation when a shard dies (never a hang, never a
   partial sum), back-pressure under a burst (every request answered,
   none refused), round-robin forwarding, shard address parsing, and
   the binary client path end to end. *)

module Json = Core.Query.Json
module P = Core.Query.Protocol
module Server = Core.Query.Server
module Router = Core.Query.Router
module Engine = Core.Query.Engine
module Snapshot = Core.Db.Snapshot

let env = lazy (Core.Study.Env.create_small ())
let index () = (Lazy.force env).Core.Study.Env.index

let start_shard () =
  match
    Server.start
      ~config:{ Server.default with workers = Some 2 }
      (index ())
  with
  | Ok srv -> srv
  | Error msg -> Alcotest.failf "shard start: %s" msg

let spec srv = { Router.sh_host = "127.0.0.1"; sh_port = Server.port srv }

(* A fleet of [n] in-process shards behind a router; [f] gets both so
   tests can kill shards mid-run. Everything stops on the way out. *)
let with_fleet ?(n = 3) ?config f =
  let shards = List.init n (fun _ -> start_shard ()) in
  Fun.protect
    ~finally:(fun () -> List.iter Server.stop shards)
    (fun () ->
      match Router.start ?config (List.map spec shards) with
      | Error msg -> Alcotest.failf "router start: %s" msg
      | Ok router ->
        Fun.protect
          ~finally:(fun () -> Router.stop router)
          (fun () -> f router (Array.of_list shards)))

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let parse_exn s =
  match Json.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

(* One JSON conversation via the router, in-order responses. *)
let converse port reqs =
  let _fd, ic, oc = connect port in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    reqs;
  flush oc;
  let resps = List.map (fun _ -> parse_exn (input_line ic)) reqs in
  (* one close for the fd both channels share: a second one could hit
     the fd number another client thread's socket just received *)
  close_out_noerr oc;
  resps

let ask port line = List.hd (converse port [ line ])

let is_ok v =
  match Json.member "ok" v with Some (Json.Bool b) -> b | _ -> false

let error_kind v =
  match Json.member "error" v with
  | Some e -> (
    match Json.member "kind" e with
    | Some (Json.Str k) -> k
    | _ -> Alcotest.failf "no error kind in %s" (Json.to_string v))
  | None -> Alcotest.failf "not an error: %s" (Json.to_string v)

let num field v =
  match Json.member field v with
  | Some (Json.Num f) -> f
  | _ -> Alcotest.failf "response lacks %S: %s" field (Json.to_string v)

let completeness_req ?phase syscalls =
  let nrs = String.concat "," (List.map string_of_int syscalls) in
  match phase with
  | None -> Printf.sprintf {|{"op":"completeness","syscalls":[%s]}|} nrs
  | Some p ->
    Printf.sprintf {|{"op":"completeness","syscalls":[%s],"phase":"%s"}|}
      nrs p

(* --- scatter/gather correctness ------------------------------------- *)

let test_scatter_matches_single_process () =
  with_fleet (fun router _ ->
      let port = Router.port router in
      List.iter
        (fun (syscalls, phase, label) ->
          let routed = num "completeness" (ask port (completeness_req ?phase syscalls)) in
          let direct =
            Engine.eval_syscalls
              ?phase:
                (Option.map
                   (fun p ->
                     match Engine.phase_of_string p with
                     | Ok ph -> ph
                     | Error e -> Alcotest.failf "phase %s: %s" p e)
                   phase)
              (index ()) syscalls
          in
          if Float.abs (routed -. direct) > 1e-12 then
            Alcotest.failf "%s: routed %.17g vs direct %.17g" label routed
              direct)
        [ ([ 0; 1; 2; 3 ], None, "small subset");
          ([], None, "empty subset");
          (List.init 200 Fun.id, None, "wide subset");
          ([ 0; 1; 2; 3 ], Some "init", "init phase");
          ([ 5; 9; 60 ], Some "serving", "serving phase") ])

let test_scatter_matches_random () =
  (* property-style sweep over random subsets and phases, one fleet
     for all of them: routed completeness is the single-process
     answer within accumulation noise *)
  let rand = Random.State.make [| 0x5ca7; 0x6a7e |] in
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_bound 50) (int_bound 447))
        (oneofl [ None; Some Engine.Init; Some Engine.Serving;
                  Some Engine.All ]))
  in
  with_fleet ~n:2 (fun router _ ->
      let port = Router.port router in
      for _ = 1 to 30 do
        let syscalls, phase = QCheck2.Gen.generate1 ~rand gen in
        let wire =
          Option.map
            (function
              | Engine.Init -> "init"
              | Engine.Serving -> "serving"
              | Engine.All -> "all")
            phase
        in
        let routed =
          num "completeness"
            (ask port (completeness_req ?phase:wire syscalls))
        in
        let direct = Engine.eval_syscalls ?phase (index ()) syscalls in
        if Float.abs (routed -. direct) > 1e-12 then
          Alcotest.failf "random subset diverged: %.17g vs %.17g" routed
            direct
      done)

let test_forwarded_ops () =
  (* point ops round-robin to some healthy shard and match the local
     evaluator's JSON answers *)
  with_fleet (fun router _ ->
      let port = Router.port router in
      let local line =
        parse_exn (Core.Query.Serve.handle_line (index ()) line)
      in
      List.iter
        (fun line ->
          let routed = ask port line in
          Alcotest.(check bool)
            (Printf.sprintf "%s ok" line)
            true (is_ok routed);
          Alcotest.(check string)
            (Printf.sprintf "%s matches local" line)
            (Json.to_string (local line))
            (Json.to_string routed))
        [ {|{"op":"importance","api":"read"}|};
          {|{"op":"top","n":5}|};
          {|{"op":"dependents","api":"syscall:0","limit":3}|};
          {|{"op":"partial-completeness","syscalls":[0,1],"lo":0,"hi":50}|}
        ])

let test_local_ops_and_stats () =
  with_fleet (fun router shards ->
      let port = Router.port router in
      let r = ask port {|{"op":"ping","id":1}|} in
      Alcotest.(check bool) "ping ok" true (is_ok r);
      let r = ask port {|{"op":"ping","id":2}|} in
      Alcotest.(check bool) "pong" true
        (Json.member "pong" r = Some (Json.Bool true));
      Alcotest.(check (float 0.0)) "ping id echoed" 2.0 (num "id" r);
      let r = ask port {|{"op":"stats"}|} in
      Alcotest.(check bool) "stats ok" true (is_ok r);
      Alcotest.(check int) "stats package count"
        (int_of_float
           (num "n_packages"
              (parse_exn
                 (Core.Query.Serve.handle_line (index ()) {|{"op":"stats"}|}))))
        (int_of_float (num "n_packages" r));
      (match Json.member "shards_healthy" r with
       | Some (Json.Num f) ->
         Alcotest.(check int) "stats shard gauge" (Array.length shards)
           (int_of_float f)
       | _ -> Alcotest.fail "stats lacks shards_healthy gauge");
      (* 8 default workers derive the front end's 256-slot queue, and
         a router that never refuses has no shed count to report *)
      Alcotest.(check int) "stats queue capacity" 256
        (int_of_float (num "queue_capacity" r));
      Alcotest.(check bool) "no shed gauge" true
        (Json.member "shed" r = None);
      List.iter
        (fun line ->
          Alcotest.(check string) line "unknown-op" (error_kind (ask port line)))
        [ {|{"op":"explode"}|}; {|{"op":"hello","versions":[1]}|} ])

(* --- degradation ------------------------------------------------------ *)

let test_shard_down_structured () =
  (* kill one shard: scatters answer a structured degraded error
     promptly (never hang, never a partial sum); ping still works *)
  with_fleet
    ~config:{ Router.default with shard_timeout = 2.0; health_period = 0.2 }
    (fun router shards ->
      let port = Router.port router in
      Alcotest.(check bool) "pre-kill scatter ok" true
        (is_ok (ask port (completeness_req [ 0; 1; 2 ])));
      Server.stop shards.(1);
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec until_degraded () =
        let r = ask port (completeness_req [ 0; 1; 2 ]) in
        if is_ok r then begin
          (* the dead shard's connection may need one scatter to be
             noticed; an ok answer before that is the cached/alive path *)
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "scatter kept succeeding with a dead shard";
          Thread.delay 0.05;
          until_degraded ()
        end
        else r
      in
      let r = until_degraded () in
      Alcotest.(check string) "degraded kind" "degraded" (error_kind r);
      (* the error names the shard it lost *)
      (match Json.member "error" r with
       | Some e -> (
         match Json.member "msg" e with
         | Some (Json.Str m) ->
           Alcotest.(check bool)
             (Printf.sprintf "msg names the shard: %s" m)
             true
             (String.length m > 0)
         | _ -> Alcotest.fail "degraded error lacks msg")
       | None -> assert false);
      (* local and forwarded ops still answer *)
      Alcotest.(check bool) "ping survives" true
        (is_ok (ask port {|{"op":"ping"}|}));
      Alcotest.(check bool) "forwarded op survives via healthy shards" true
        (is_ok (ask port {|{"op":"top","n":3}|}));
      (* the health thread marks it down *)
      let rec wait_unhealthy tries =
        if Router.healthy_shards router < Array.length shards then ()
        else if tries = 0 then
          Alcotest.fail "health pings never noticed the dead shard"
        else begin
          Thread.delay 0.1;
          wait_unhealthy (tries - 1)
        end
      in
      wait_unhealthy 50)

let test_all_shards_down () =
  (* even with every shard dead the router answers structured errors *)
  with_fleet ~n:2
    ~config:{ Router.default with shard_timeout = 1.0; health_period = 0.2 }
    (fun router shards ->
      let port = Router.port router in
      Array.iter Server.stop shards;
      let r = ask port (completeness_req [ 0; 1 ]) in
      Alcotest.(check bool) "scatter structured" false (is_ok r);
      let r = ask port {|{"op":"top","n":2}|} in
      Alcotest.(check bool) "forward structured" false (is_ok r);
      Alcotest.(check bool) "ping still local" true
        (is_ok (ask port {|{"op":"ping"}|})))

let test_burst_back_pressures () =
  (* a one-worker router (a 128-slot queue) under a 400-request burst
     on one connection: a full queue blocks the reader instead of
     refusing, so every request is answered ok, in send order, and
     right *)
  with_fleet ~n:2
    ~config:{ Router.default with workers = 1 }
    (fun router _ ->
      let port = Router.port router in
      let subsets = [| [ 0; 1; 2; 3; 4 ]; []; [ 5; 9; 60 ]; [ 7 ] |] in
      let expected = Array.map (Engine.eval_syscalls (index ())) subsets in
      let n = 400 in
      let reqs =
        List.init n (fun i ->
            let nrs =
              String.concat ","
                (List.map string_of_int subsets.(i mod Array.length subsets))
            in
            Printf.sprintf {|{"op":"completeness","syscalls":[%s],"id":%d}|}
              nrs i)
      in
      let resps = converse port reqs in
      Alcotest.(check int) "every request answered" n (List.length resps);
      List.iteri
        (fun i r ->
          if not (is_ok r) then
            Alcotest.failf "response %d refused: %s" i (Json.to_string r);
          Alcotest.(check int)
            (Printf.sprintf "response %d in order" i)
            i
            (int_of_float (num "id" r));
          let want = expected.(i mod Array.length subsets) in
          let got = num "completeness" r in
          if Float.abs (got -. want) > 1e-12 then
            Alcotest.failf "response %d: %.17g vs %.17g" i got want)
        resps;
      Alcotest.(check int) "derived queue bound" 128
        (int_of_float (num "queue_capacity" (ask port {|{"op":"stats"}|}))))

(* --- shard addresses -------------------------------------------------- *)

let test_shard_spec_needs_an_address () =
  (* the router dials addresses and resolves no names: a host name is
     refused up front rather than dialled as some other host *)
  let parse s =
    match Router.shard_spec_of_string s with
    | Ok sp -> Ok (sp.Router.sh_host, sp.Router.sh_port)
    | Error _ -> Error ()
  in
  let spec = Alcotest.(result (pair string int) unit) in
  Alcotest.check spec "host name" (Error ()) (parse "db1:7001");
  Alcotest.check spec "IPv4 address" (Ok ("10.0.0.2", 7001))
    (parse "10.0.0.2:7001");
  Alcotest.check spec "port only" (Ok ("127.0.0.1", 7001)) (parse "7001");
  Alcotest.check spec "IPv6 address" (Error ()) (parse "::1:7001");
  Alcotest.check spec "bad port" (Error ()) (parse "10.0.0.2:70000")

(* --- sliced fleet ----------------------------------------------------- *)

(* A shard serving a range-sliced image: the slice is cut with
   [to_image_string ~range], loaded back, and served like any other
   index — the router reads the slice bounds off its stats gauges. *)
let start_sliced_shard (lo, hi) =
  let img =
    match
      Engine.to_image_string ~seed:7 ~source_key:"router-sliced"
        ~range:(lo, hi) (index ())
    with
    | Ok s -> s
    | Error e ->
      Alcotest.failf "slice image (%d,%d): %a" lo hi Snapshot.pp_error e
  in
  let q =
    match Engine.of_image img with
    | Ok q -> q
    | Error e ->
      Alcotest.failf "slice load (%d,%d): %a" lo hi Snapshot.pp_error e
  in
  match
    Server.start ~config:{ Server.default with workers = Some 2 } q
  with
  | Ok srv -> srv
  | Error msg -> Alcotest.failf "sliced shard start: %s" msg

let test_sliced_fleet_matches_single_process () =
  (* three shards each serving one slice of the index: scatters merge
     the sliced partials back to the single-process answer, and the
     ops that must scatter on a sliced fleet (dependents,
     partial-completeness) still match the local evaluator *)
  let n = Engine.n_packages (index ()) in
  let ranges = Engine.shard_ranges n 3 in
  let shards = List.map start_sliced_shard ranges in
  Fun.protect
    ~finally:(fun () -> List.iter Server.stop shards)
    (fun () ->
      match Router.start (List.map spec shards) with
      | Error msg -> Alcotest.failf "sliced router start: %s" msg
      | Ok router ->
        Fun.protect
          ~finally:(fun () -> Router.stop router)
          (fun () ->
            let port = Router.port router in
            let local line =
              parse_exn (Core.Query.Serve.handle_line (index ()) line)
            in
            (* completeness scatters over the slices *)
            List.iter
              (fun (syscalls, phase) ->
                let routed =
                  num "completeness"
                    (ask port (completeness_req ?phase syscalls))
                in
                let direct =
                  Engine.eval_syscalls
                    ?phase:
                      (Option.map
                         (fun p ->
                           match Engine.phase_of_string p with
                           | Ok ph -> ph
                           | Error e -> Alcotest.failf "phase %s: %s" p e)
                         phase)
                    (index ()) syscalls
                in
                if Float.abs (routed -. direct) > 1e-12 then
                  Alcotest.failf "sliced scatter diverged: %.17g vs %.17g"
                    routed direct)
              [ ([ 0; 1; 2; 3 ], None);
                ([], None);
                (List.init 200 Fun.id, None);
                ([ 0; 1; 2; 3 ], Some "init");
                ([ 5; 9; 60 ], Some "serving") ];
            (* partial-completeness spanning every slice boundary *)
            List.iter
              (fun (lo, hi) ->
                let line =
                  Printf.sprintf
                    {|{"op":"partial-completeness","syscalls":[0,1,7],"lo":%d,"hi":%d}|}
                    lo hi
                in
                let routed = ask port line in
                Alcotest.(check bool)
                  (Printf.sprintf "partial [%d,%d) ok" lo hi)
                  true (is_ok routed);
                let direct = local line in
                if
                  Float.abs (num "num" routed -. num "num" direct) > 1e-12
                  || not
                       (Float.equal (num "den" routed) (num "den" direct))
                then
                  Alcotest.failf "sliced partial [%d,%d) diverged" lo hi)
              [ (0, n); (10, n - 17); (0, 1); (n - 1, n); (50, 50) ];
            (* dependents merges per-slice rows without touching the
               floats — byte-identical to the local answer *)
            List.iter
              (fun line ->
                Alcotest.(check string)
                  (Printf.sprintf "%s matches local" line)
                  (Json.to_string (local line))
                  (Json.to_string (ask port line)))
              [ {|{"op":"dependents","api":"syscall:0","limit":5}|};
                {|{"op":"importance","api":"read"}|};
                {|{"op":"top","n":5}|} ];
            let r = ask port {|{"op":"stats"}|} in
            Alcotest.(check int) "sliced stats package count" n
              (int_of_float (num "n_packages" r))))

(* --- concurrent clients ------------------------------------------------ *)

let test_concurrent_clients () =
  (* six clients pipelining scatters into one router at once: the
     answer at each send position is the single-process one within
     accumulation noise *)
  with_fleet ~n:2 (fun router _ ->
      let port = Router.port router in
      let subsets =
        [ [ 0; 1; 2; 3 ]; []; [ 5; 9; 60 ]; List.init 120 Fun.id; [ 0; 7 ] ]
      in
      let expected =
        List.map (fun s -> Engine.eval_syscalls (index ()) s) subsets
      in
      let fail_m = Mutex.create () in
      let failures = ref [] in
      let record msg =
        Mutex.lock fail_m;
        failures := msg :: !failures;
        Mutex.unlock fail_m
      in
      let client c () =
        try
          let reqs =
            List.concat
              (List.init 4 (fun _ ->
                   List.map (fun s -> completeness_req s) subsets))
          in
          let resps = converse port reqs in
          List.iteri
            (fun i r ->
              let want = List.nth expected (i mod List.length subsets) in
              let got = num "completeness" r in
              if Float.abs (got -. want) > 1e-12 then
                record
                  (Printf.sprintf "client %d resp %d: %.17g vs %.17g" c i got
                     want))
            resps
        with e -> record (Printf.sprintf "client %d: %s" c (Printexc.to_string e))
      in
      let threads = List.init 6 (fun c -> Thread.create (client c) ()) in
      List.iter Thread.join threads;
      match !failures with
      | [] -> ()
      | msgs ->
        Alcotest.failf "concurrent clients diverged:\n%s"
          (String.concat "\n" msgs))

(* --- binary client path ---------------------------------------------- *)

let test_binary_client () =
  with_fleet ~n:2 (fun router _ ->
      let port = Router.port router in
      let _fd, ic, oc = connect port in
      let send r = output_string oc (P.Bin.encode_request r) in
      let recv () =
        match P.Bin.input_frame ic with
        | Ok payload -> (
          match P.Bin.decode_response payload with
          | Ok r -> r
          | Error e -> Alcotest.failf "binary response: %s" e)
        | Error `Eof -> Alcotest.fail "router closed the binary stream"
        | Error (`Bad m) -> Alcotest.failf "binary framing: %s" m
      in
      send { P.rq_id = Some (Json.Num 1.0); rq_op = P.Ping };
      send
        {
          P.rq_id = Some (Json.Num 2.0);
          rq_op = P.Completeness { syscalls = [ 0; 1; 2 ]; phase = Engine.All };
        };
      send { P.rq_id = Some (Json.Num 3.0); rq_op = P.Top 3 };
      flush oc;
      (match (recv ()).P.rs_result with
       | Ok P.Pong -> ()
       | _ -> Alcotest.fail "binary ping failed");
      (match (recv ()).P.rs_result with
       | Ok (P.Completeness_r { completeness; _ }) ->
         let direct = Engine.eval_syscalls (index ()) [ 0; 1; 2 ] in
         if Float.abs (completeness -. direct) > 1e-12 then
           Alcotest.fail "binary scatter mismatch"
       | _ -> Alcotest.fail "binary completeness failed");
      (match (recv ()).P.rs_result with
       | Ok (P.Top_r rows) ->
         Alcotest.(check int) "binary top rows" 3 (List.length rows)
       | _ -> Alcotest.fail "binary top failed");
      close_out_noerr oc)

let () =
  Alcotest.run "router"
    [ ( "scatter",
        [ Alcotest.test_case "matches single-process" `Quick
            test_scatter_matches_single_process;
          Alcotest.test_case "matches on random subsets" `Quick
            test_scatter_matches_random;
          Alcotest.test_case "forwarded ops" `Quick test_forwarded_ops;
          Alcotest.test_case "local ops and stats" `Quick
            test_local_ops_and_stats ] );
      ( "degradation",
        [ Alcotest.test_case "shard down is structured" `Quick
            test_shard_down_structured;
          Alcotest.test_case "all shards down" `Quick test_all_shards_down;
          Alcotest.test_case "burst back-pressures" `Quick
            test_burst_back_pressures ] );
      ( "addresses",
        [ Alcotest.test_case "shard spec needs an address" `Quick
            test_shard_spec_needs_an_address ] );
      ( "sliced",
        [ Alcotest.test_case "sliced fleet matches single-process" `Quick
            test_sliced_fleet_matches_single_process ] );
      ( "concurrent",
        [ Alcotest.test_case "six clients, one router" `Quick
            test_concurrent_clients ] );
      ( "binary",
        [ Alcotest.test_case "binary client" `Quick test_binary_client ] )
    ]
