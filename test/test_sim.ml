(* Tests for the discrete-event substrate: event queue, engine/fibers, wait
   queues, RNG, histograms, stats and contended resources. *)

open Dex_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Event queue *)

let test_eventq_order () =
  let q = Event_queue.create () in
  let log = ref [] in
  let push time seq tag =
    Event_queue.push q ~time ~seq (fun () -> log := tag :: !log)
  in
  push 30 1 "c";
  push 10 2 "a";
  push 20 3 "b";
  push 10 4 "a2";
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (_, thunk) ->
        thunk ();
        drain ()
  in
  drain ();
  Alcotest.(check (list string)) "time then seq order" [ "a"; "a2"; "b"; "c" ]
    (List.rev !log)

let test_eventq_peek () =
  let q = Event_queue.create () in
  Alcotest.(check (option int)) "empty" None (Event_queue.peek_time q);
  Event_queue.push q ~time:42 ~seq:0 ignore;
  Alcotest.(check (option int)) "peek" (Some 42) (Event_queue.peek_time q);
  check_int "length" 1 (Event_queue.length q)

let prop_eventq_sorted =
  QCheck.Test.make ~name:"event queue pops sorted by (time, seq)" ~count:200
    QCheck.(list (pair (int_bound 1000) (int_bound 1000)))
    (fun entries ->
      let q = Event_queue.create () in
      List.iteri
        (fun seq (time, _) -> Event_queue.push q ~time ~seq (fun () -> ()))
        entries;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (time, _) -> drain (time :: acc)
      in
      let popped = drain [] in
      List.sort compare popped = popped
      && List.length popped = List.length entries)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_delay_advances_time () =
  let e = Engine.create () in
  let final = ref (-1) in
  Engine.spawn e (fun () ->
      Engine.delay e (Time_ns.us 5);
      Engine.delay e (Time_ns.us 7);
      final := Engine.now e);
  Engine.run_until_quiescent e;
  check_int "time advanced" (Time_ns.us 12) !final

let test_engine_same_instant_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.spawn e (fun () -> log := i :: !log)
  done;
  Engine.run_until_quiescent e;
  Alcotest.(check (list int)) "spawn order preserved" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_suspend_resume () =
  let e = Engine.create () in
  let resumer = ref None in
  let got = ref 0 in
  Engine.spawn e (fun () ->
      let v = Engine.suspend e (fun resume -> resumer := Some resume) in
      got := v);
  Engine.spawn e (fun () ->
      Engine.delay e (Time_ns.us 3);
      match !resumer with Some r -> r 99 | None -> Alcotest.fail "no resumer");
  Engine.run_until_quiescent e;
  check_int "value delivered" 99 !got

let test_engine_deadlock_detection () =
  let e = Engine.create () in
  Engine.spawn e (fun () ->
      let (_ : int) = Engine.suspend e (fun _resume -> ()) in
      ());
  Alcotest.check_raises "deadlock" Engine.Deadlock (fun () ->
      Engine.run_until_quiescent e)

let test_engine_fiber_failure_labelled () =
  let e = Engine.create () in
  Engine.spawn e ~label:"boom" (fun () -> failwith "bad");
  match Engine.run_until_quiescent e with
  | () -> Alcotest.fail "expected failure"
  | exception (Engine.Fiber_failure ("boom", Failure _) as e) ->
      (* The registered printer shows the label and the real cause, not
         the generic [_] placeholder. *)
      Alcotest.(check string)
        "rendered" {|Dex_sim.Engine.Fiber_failure("boom", Failure("bad"))|}
        (Printexc.to_string e)
  | exception _ -> Alcotest.fail "wrong exception"

let test_engine_double_resume_rejected () =
  let e = Engine.create () in
  let resumer = ref None in
  Engine.spawn e (fun () ->
      let (_ : int) = Engine.suspend e (fun r -> resumer := Some r) in
      ());
  Engine.spawn e (fun () ->
      let r = Option.get !resumer in
      r 1;
      match r 2 with
      | () -> Alcotest.fail "second resume should raise"
      | exception Invalid_argument _ -> ());
  Engine.run_until_quiescent e

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~delay:(Time_ns.us 1) (fun () -> fired := 1 :: !fired);
  Engine.schedule e ~delay:(Time_ns.us 10) (fun () -> fired := 10 :: !fired);
  Engine.run ~until:(Time_ns.us 5) e;
  Alcotest.(check (list int)) "only early event" [ 1 ] (List.rev !fired);
  Engine.run e;
  Alcotest.(check (list int)) "rest runs" [ 1; 10 ] (List.rev !fired)

let test_engine_determinism () =
  let run_once () =
    let e = Engine.create () in
    let rng = Rng.create ~seed:7 in
    let log = Buffer.create 64 in
    for i = 1 to 10 do
      Engine.spawn e (fun () ->
          Engine.delay e (Rng.int rng 1000);
          Buffer.add_string log (Printf.sprintf "%d@%d;" i (Engine.now e)))
    done;
    Engine.run_until_quiescent e;
    Buffer.contents log
  in
  Alcotest.(check string) "identical traces" (run_once ()) (run_once ())

(* ------------------------------------------------------------------ *)
(* Waitq *)

let test_waitq_fifo () =
  let e = Engine.create () in
  let q = Waitq.create () in
  let log = ref [] in
  for i = 1 to 3 do
    Engine.spawn e (fun () ->
        let v = Waitq.wait e q in
        log := (i, v) :: !log)
  done;
  Engine.spawn e (fun () ->
      Engine.delay e 10;
      check_int "queue length" 3 (Waitq.length q);
      check_bool "wake one" true (Waitq.wake_one q "x");
      let n = Waitq.wake_all q "y" in
      check_int "woke remaining" 2 n);
  Engine.run_until_quiescent e;
  Alcotest.(check (list (pair int string)))
    "FIFO order"
    [ (1, "x"); (2, "y"); (3, "y") ]
    (List.rev !log)

let test_waitq_wake_empty () =
  let q = Waitq.create () in
  check_bool "wake_one empty" false (Waitq.wake_one q 0);
  check_int "wake_all empty" 0 (Waitq.wake_all q 0)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:42 in
  let child = Rng.split a in
  check_bool "different streams"
    (Rng.next_int64 a <> Rng.next_int64 child)
    true

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_shuffle_permutation =
  QCheck.Test.make ~name:"Rng.shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Rng.create ~seed in
      let a = Array.of_list l in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let test_rng_float_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    check_bool "in range" true (v >= 0.0 && v < 2.5)
  done

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_stats () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 10; 20; 30; 40 ];
  check_int "count" 4 (Histogram.count h);
  Alcotest.(check (float 0.001)) "mean" 25.0 (Histogram.mean h);
  check_int "min" 10 (Histogram.min_value h);
  check_int "max" 40 (Histogram.max_value h);
  check_int "median" 20 (Histogram.percentile h 50.0);
  check_int "p100" 40 (Histogram.percentile h 100.0)

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check (float 0.0)) "mean empty" 0.0 (Histogram.mean h);
  Alcotest.check_raises "min empty"
    (Invalid_argument "Histogram.min_value: empty") (fun () ->
      ignore (Histogram.min_value h))

let test_histogram_buckets_bimodal () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 19; 18; 21; 150; 160; 155 ];
  let b = Histogram.buckets h ~width:50 in
  Alcotest.(check (list (pair int int))) "two modes" [ (0, 3); (150, 3) ] b

(* Negative samples must land in floor-division buckets: -5 belongs to
   [-10, 0), not to 0's bucket as truncating division would place it. *)
let test_histogram_buckets_negative () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ -5; -15; 5 ];
  let b = Histogram.buckets h ~width:10 in
  Alcotest.(check (list (pair int int)))
    "floor buckets"
    [ (-20, 1); (-10, 1); (0, 1) ]
    b

(* merge is a fresh accumulator: inputs keep their own samples, empty
   sides are absorbed, and the merged percentiles see both sets. *)
let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.add a) [ 10; 20 ];
  List.iter (Histogram.add b) [ 30; 40; 50 ];
  let m = Histogram.merge a b in
  check_int "merged count" 5 (Histogram.count m);
  check_int "merged min" 10 (Histogram.min_value m);
  check_int "merged max" 50 (Histogram.max_value m);
  check_int "merged median" 30 (Histogram.percentile m 50.0);
  (* The inputs are unchanged... *)
  check_int "left intact" 2 (Histogram.count a);
  check_int "right intact" 3 (Histogram.count b);
  (* ...and the result is independent of them. *)
  Histogram.add m 60;
  check_int "merge is fresh" 6 (Histogram.count m);
  check_int "left still intact" 2 (Histogram.count a);
  let e = Histogram.create () in
  check_int "empty left" 3 (Histogram.count (Histogram.merge e b));
  check_int "empty right" 3 (Histogram.count (Histogram.merge b e));
  check_int "empty both" 0 (Histogram.count (Histogram.merge e e))

(* Nearest-rank p999 on few samples: any p > (n-1)/n * 100 is the max,
   and the tail percentiles are monotone in p. *)
let test_histogram_p999 () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1; 2; 3 ];
  check_int "p999 of 3 samples is the max" 3 (Histogram.percentile h 99.9);
  check_int "p99 of 3 samples is the max" 3 (Histogram.percentile h 99.0);
  let one = Histogram.create () in
  Histogram.add one 7;
  check_int "p999 of a single sample" 7 (Histogram.percentile one 99.9);
  check_int "p0 of a single sample" 7 (Histogram.percentile one 0.0);
  (* 1000 samples: p99.9 is the 999th-largest, distinct from the max. *)
  let big = Histogram.create () in
  for v = 1 to 1000 do
    Histogram.add big v
  done;
  check_int "p999 of 1..1000" 999 (Histogram.percentile big 99.9);
  check_int "p100 of 1..1000" 1000 (Histogram.percentile big 100.0);
  Alcotest.check_raises "percentile of empty"
    (Invalid_argument "Histogram.percentile: empty") (fun () ->
      ignore (Histogram.percentile (Histogram.create ()) 99.9))

let prop_histogram_mean_bounded =
  QCheck.Test.make ~name:"histogram mean within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (int_bound 100_000))
    (fun l ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) l;
      let m = Histogram.mean h in
      m >= float_of_int (Histogram.min_value h)
      && m <= float_of_int (Histogram.max_value h))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_counters () =
  let s = Stats.create () in
  Stats.incr s "faults";
  Stats.incr s "faults";
  Stats.add s "bytes" 4096;
  check_int "incr" 2 (Stats.get s "faults");
  check_int "add" 4096 (Stats.get s "bytes");
  check_int "unknown" 0 (Stats.get s "nope");
  Alcotest.(check (list (pair string int)))
    "sorted listing"
    [ ("bytes", 4096); ("faults", 2) ]
    (Stats.to_list s);
  Stats.reset s;
  check_int "reset" 0 (Stats.get s "faults")

(* ------------------------------------------------------------------ *)
(* Resources *)

let test_pool_limits_concurrency () =
  let e = Engine.create () in
  let pool = Resource.Pool.create e ~capacity:2 in
  let peak = ref 0 in
  let active = ref 0 in
  for _ = 1 to 6 do
    Engine.spawn e (fun () ->
        Resource.Pool.acquire pool;
        incr active;
        peak := max !peak !active;
        Engine.delay e (Time_ns.us 10);
        decr active;
        Resource.Pool.release pool)
  done;
  Engine.run_until_quiescent e;
  check_int "peak concurrency" 2 !peak;
  (* Three waves of two: total time = 30us. *)
  check_int "makespan" (Time_ns.us 30) (Engine.now e)

let test_pool_release_unacquired () =
  let e = Engine.create () in
  let pool = Resource.Pool.create e ~capacity:1 in
  Alcotest.check_raises "release unacquired"
    (Invalid_argument "Pool.release: not acquired") (fun () ->
      Resource.Pool.release pool)

let test_server_serializes () =
  let e = Engine.create () in
  (* 1 byte per us. *)
  let srv = Resource.Server.create e ~bytes_per_us:1.0 in
  let t1 = ref 0 and t2 = ref 0 in
  Engine.spawn e (fun () ->
      Resource.Server.transfer srv ~bytes:10;
      t1 := Engine.now e);
  Engine.spawn e (fun () ->
      Resource.Server.transfer srv ~bytes:10;
      t2 := Engine.now e);
  Engine.run_until_quiescent e;
  check_int "first done at 10us" (Time_ns.us 10) !t1;
  check_int "second queued behind" (Time_ns.us 20) !t2

let test_server_idle_no_wait () =
  let e = Engine.create () in
  let srv = Resource.Server.create e ~bytes_per_us:2.0 in
  let t1 = ref 0 in
  Engine.spawn e (fun () ->
      Engine.delay e (Time_ns.us 100);
      Resource.Server.transfer srv ~bytes:10;
      t1 := Engine.now e);
  Engine.run_until_quiescent e;
  check_int "no stale backlog" (Time_ns.us 105) !t1

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "dex_sim"
    [
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_eventq_order;
          Alcotest.test_case "peek/length" `Quick test_eventq_peek;
        ]
        @ qsuite [ prop_eventq_sorted ] );
      ( "engine",
        [
          Alcotest.test_case "delay advances time" `Quick
            test_engine_delay_advances_time;
          Alcotest.test_case "same-instant FIFO" `Quick
            test_engine_same_instant_fifo;
          Alcotest.test_case "suspend/resume" `Quick test_engine_suspend_resume;
          Alcotest.test_case "deadlock detection" `Quick
            test_engine_deadlock_detection;
          Alcotest.test_case "fiber failure labelled" `Quick
            test_engine_fiber_failure_labelled;
          Alcotest.test_case "double resume rejected" `Quick
            test_engine_double_resume_rejected;
          Alcotest.test_case "run ~until" `Quick test_engine_run_until;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
        ] );
      ( "waitq",
        [
          Alcotest.test_case "FIFO wake order" `Quick test_waitq_fifo;
          Alcotest.test_case "wake empty" `Quick test_waitq_wake_empty;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independent;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        ]
        @ qsuite [ prop_rng_int_bounds; prop_rng_shuffle_permutation ] );
      ( "histogram",
        [
          Alcotest.test_case "summary stats" `Quick test_histogram_stats;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "bimodal buckets" `Quick
            test_histogram_buckets_bimodal;
          Alcotest.test_case "negative buckets" `Quick
            test_histogram_buckets_negative;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "p999 edge cases" `Quick test_histogram_p999;
        ]
        @ qsuite [ prop_histogram_mean_bounded ] );
      ("stats", [ Alcotest.test_case "counters" `Quick test_stats_counters ]);
      ( "resource",
        [
          Alcotest.test_case "pool limits concurrency" `Quick
            test_pool_limits_concurrency;
          Alcotest.test_case "pool release unacquired" `Quick
            test_pool_release_unacquired;
          Alcotest.test_case "server serializes" `Quick test_server_serializes;
          Alcotest.test_case "server idle no wait" `Quick
            test_server_idle_no_wait;
        ] );
    ]
