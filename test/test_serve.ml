(* Tests for the multi-tenant serving layer: admission-control accounting,
   graceful degradation under overload, per-tenant arrival independence,
   weighted fair sharing, and cross-tenant fault isolation under a
   mid-serve node crash. *)

open Dex_sim
open Dex_serve
module Net_config = Dex_net.Net_config
module Proto_config = Dex_proto.Proto_config

let () =
  Printexc.register_printer (function
    | Engine.Fiber_failure (label, e) ->
        Some (Printf.sprintf "Fiber_failure(%s, %s)" label (Printexc.to_string e))
    | _ -> None)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Time_ns.ms
let us = Time_ns.us

(* Deterministic chaos fabric with no injected faults: crashes need the
   reliable transport, and a short retry budget keeps detection quick. *)
let crash_net ~nodes () =
  let chaos =
    {
      Net_config.chaos_default with
      Net_config.chaos_seed = 11;
      rto = us 20;
      rto_cap = us 100;
      max_retransmits = 4;
    }
  in
  { (Net_config.default ~nodes ()) with chaos = Some chaos }

let tenant name ?(rate = 2.0) ?(inflight = 4) ?(pending = 0) () =
  {
    Serve_config.default_tenant with
    t_name = name;
    t_arrival = Poisson rate;
    t_max_inflight = inflight;
    t_max_pending = pending;
  }

let small_cfg ?(n = 2) ?(rate = 2.0) () =
  {
    Serve_config.default with
    tenants =
      List.init n (fun i -> tenant (Printf.sprintf "t%d" i) ~rate ());
    duration = ms 2;
    shed_after = None;
  }

(* The books balance on every tenant and every counter explains itself. *)
let test_accounting () =
  let r = Serve.run (small_cfg ()) in
  check_int "every tenant reported" 2 (List.length r.r_tenants);
  List.iter
    (fun (tr : Serve.tenant_result) ->
      check_bool (tr.tr_name ^ " saw traffic") true (tr.tr_offered > 0);
      check_int (tr.tr_name ^ " admission split")
        tr.tr_offered
        (tr.tr_admitted + tr.tr_rejected);
      check_int (tr.tr_name ^ " drain split") tr.tr_admitted
        (tr.tr_completed + tr.tr_shed);
      check_int (tr.tr_name ^ " all checksums match") 0 tr.tr_corrupted;
      check_int (tr.tr_name ^ " one latency sample per completion")
        tr.tr_completed
        (Histogram.count tr.tr_sojourn))
    r.r_tenants;
  let total f = List.fold_left (fun acc tr -> acc + f tr) 0 r.r_tenants in
  check_int "fleet offered" (total (fun tr -> tr.tr_offered))
    (Stats.get r.r_stats "serve.offered");
  check_int "fleet completed" (total (fun tr -> tr.tr_completed))
    (Stats.get r.r_stats "serve.completed");
  check_bool "drained past the arrival window" true
    (r.r_sim_time >= Time_ns.ms 2)

(* A mixed-workload tenant completes every request with the right answer. *)
let test_mixed_workloads () =
  let cfg = small_cfg ~n:1 () in
  let cfg =
    {
      cfg with
      Serve_config.tenants =
        List.map
          (fun ten ->
            {
              ten with
              Serve_config.t_workload =
                Mix
                  [
                    Ep Serve_config.tiny_ep;
                    Blk Serve_config.tiny_blk;
                    Kmn Serve_config.tiny_kmn;
                  ];
            })
          cfg.Serve_config.tenants;
    }
  in
  let r = Serve.run cfg in
  let tr = List.hd r.r_tenants in
  check_bool "completed some" true (tr.tr_completed > 0);
  check_int "no corruption" 0 tr.tr_corrupted

(* Graceful degradation: driven far past capacity, the bounded queue stays
   bounded, the overflow is rejected, stale requests are shed, and the
   latency of what IS admitted stays controlled — while the unshedded
   run's queue and sojourn blow up. *)
let test_overload_sheds () =
  let overload shed =
    {
      Serve_config.default with
      tenants = [ tenant "hot" ~rate:40.0 ~inflight:2 ~pending:(if shed then 8 else 0) () ];
      duration = ms 2;
      shed_after = (if shed then Some (us 300) else None);
    }
  in
  let with_shed = List.hd (Serve.run (overload true)).r_tenants in
  let without = List.hd (Serve.run (overload false)).r_tenants in
  (* Both saw the same open-loop traffic: arrivals don't care about
     admission. *)
  check_int "same offered load" without.tr_offered with_shed.tr_offered;
  check_bool "queue stayed bounded" true (with_shed.tr_queue_peak <= 8);
  check_bool "overflow was rejected" true (with_shed.tr_rejected > 0);
  check_bool "stale requests were shed" true (with_shed.tr_shed > 0);
  check_bool "unbounded queue grew past the bound" true
    (without.tr_queue_peak > 8);
  let p99 (tr : Serve.tenant_result) = Histogram.percentile tr.tr_sojourn 99.0 in
  check_bool "admitted p99 is controlled" true
    (p99 with_shed < p99 without);
  (* Everything admitted and not shed still finished correctly. *)
  check_int "drain split" with_shed.tr_admitted
    (with_shed.tr_completed + with_shed.tr_shed);
  check_int "no corruption under overload" 0 with_shed.tr_corrupted

(* Satellite: per-tenant RNG streams are independent — appending a third
   tenant leaves the first two tenants' request streams untouched. *)
let test_tenant_streams_independent () =
  let base = small_cfg ~n:2 () in
  let widened =
    {
      base with
      Serve_config.tenants =
        base.Serve_config.tenants @ [ tenant "t2" ~rate:5.0 () ];
    }
  in
  let r2 = Serve.run base in
  let r3 = Serve.run widened in
  List.iter2
    (fun (a : Serve.tenant_result) (b : Serve.tenant_result) ->
      check_int (a.tr_name ^ " offered unchanged") a.tr_offered b.tr_offered;
      check_int (a.tr_name ^ " completed unchanged") a.tr_completed
        b.tr_completed;
      check_bool (a.tr_name ^ " digest unchanged") true
        (Int64.equal a.tr_digest b.tr_digest))
    r2.r_tenants
    (List.filteri (fun i _ -> i < 2) r3.r_tenants)

(* Same config, same seed: bit-identical serve runs. *)
let test_run_deterministic () =
  let cfg = small_cfg () in
  let a = Serve.run cfg and b = Serve.run cfg in
  check_int "same sim time" a.r_sim_time b.r_sim_time;
  List.iter2
    (fun (x : Serve.tenant_result) (y : Serve.tenant_result) ->
      check_int "offered" x.tr_offered y.tr_offered;
      check_bool "digest" true (Int64.equal x.tr_digest y.tr_digest))
    a.r_tenants b.r_tenants

(* Arrival processes: deterministic under the seed, and with sane means. *)
let test_arrivals () =
  let gaps spec seed n =
    let a = Arrivals.create ~rng:(Rng.create ~seed) spec in
    List.init n (fun _ -> Arrivals.next_gap a)
  in
  let spec = Serve_config.Poisson 2.0 in
  Alcotest.(check (list int))
    "same seed, same gaps" (gaps spec 7 64) (gaps spec 7 64);
  let mean l =
    float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
  in
  let m = mean (gaps spec 7 4096) in
  (* 2 req/ms => 500 µs mean gap. *)
  check_bool "poisson mean in range" true (m > 400_000.0 && m < 600_000.0);
  let mmpp =
    Serve_config.Mmpp
      { calm = 1.0; burst = 20.0; dwell_calm_ms = 0.5; dwell_burst_ms = 0.5 }
  in
  let mm = mean (gaps mmpp 7 4096) in
  (* Mean rate between the calm and burst extremes, not at either. *)
  check_bool "mmpp mean between regimes" true
    (mm < 900_000.0 && mm > 60_000.0);
  check_bool "gaps are positive" true
    (List.for_all (fun g -> g >= 1) (gaps mmpp 7 4096))

(* Weighted shares with a noisy-neighbour cap, observed mid-simulation. *)
let test_fairshare () =
  let eng = Engine.create () in
  let f = Fairshare.create eng ~bytes_per_us:1000.0 ~cap:0.6 in
  Fairshare.register f ~key:0 ~weight:3.0;
  Fairshare.register f ~key:1 ~weight:1.0;
  let observed = ref [] in
  Engine.spawn eng (fun () -> Fairshare.transfer f ~key:0 ~bytes:400_000);
  Engine.spawn eng (fun () -> Fairshare.transfer f ~key:1 ~bytes:400_000);
  Engine.spawn eng (fun () ->
      Engine.delay eng (us 10);
      observed :=
        [
          (Fairshare.rate f ~key:0, Fairshare.rate f ~key:1, Fairshare.backlogged f);
        ]);
  Engine.run_until_quiescent eng;
  (match !observed with
  | [ (r0, r1, backlogged) ] ->
      check_int "both backlogged" 2 backlogged;
      (* 3:1 weights over 1000 B/us, but the 3-weight tenant is capped at
         60%: 600 vs 250. *)
      check_bool "heavy tenant capped" true (abs_float (r0 -. 600.0) < 1e-6);
      check_bool "light tenant at its share" true
        (abs_float (r1 -. 250.0) < 1e-6)
  | _ -> Alcotest.fail "observer did not run");
  check_int "gate idle at the end" 0 (Fairshare.backlogged f);
  check_bool "shares were recomputed" true (Fairshare.recomputes f >= 4)

let test_fairshare_validation () =
  let eng = Engine.create () in
  Alcotest.check_raises "cap out of range"
    (Invalid_argument "Fairshare.create: cap must be in (0, 1]") (fun () ->
      ignore (Fairshare.create eng ~bytes_per_us:100.0 ~cap:1.5));
  let f = Fairshare.create eng ~bytes_per_us:100.0 ~cap:1.0 in
  Fairshare.register f ~key:0 ~weight:1.0;
  Alcotest.check_raises "duplicate key"
    (Invalid_argument "Fairshare.register: duplicate key") (fun () ->
      Fairshare.register f ~key:0 ~weight:1.0)

(* Cross-tenant fault isolation: crash one tenant's worker node mid-serve
   (Rehome policy, disjoint placements) and every OTHER tenant's completed
   count and checksum digest is identical to the no-crash baseline — and
   the victim still drains every admitted request. *)
let test_crash_isolation () =
  let cfg =
    {
      Serve_config.default with
      tenants =
        List.init 3 (fun i -> tenant (Printf.sprintf "t%d" i) ~rate:3.0 ());
      duration = ms 2;
      shed_after = None;
    }
  in
  let nodes = Serve.required_nodes cfg in
  let net () = crash_net ~nodes () in
  let proto = { Proto_config.default with on_crash = `Rehome } in
  let baseline = Serve.run ~net:(net ()) ~proto cfg in
  (* Tenant 0 owns nodes {0, 1}; node 1 is a pure worker node. *)
  let crashed =
    Serve.run ~net:(net ()) ~proto
      ~events:[ (ms 1, fun cl -> Dex_core.Cluster.crash_node cl ~node:1) ]
      cfg
  in
  let nth (r : Serve.result) i = List.nth r.r_tenants i in
  List.iter
    (fun i ->
      let b = nth baseline i and c = nth crashed i in
      check_int (b.tr_name ^ " offered unaffected") b.tr_offered c.tr_offered;
      check_int (b.tr_name ^ " completions unaffected") b.tr_completed
        c.tr_completed;
      check_bool (b.tr_name ^ " answers unaffected") true
        (Int64.equal b.tr_digest c.tr_digest);
      check_int (b.tr_name ^ " not corrupted") 0 c.tr_corrupted)
    [ 1; 2 ];
  let v = nth crashed 0 in
  check_int "victim still drains every admitted request" v.tr_admitted
    (v.tr_completed + v.tr_shed);
  check_bool "victim kept completing" true (v.tr_completed > 0)

(* Failover under load: with ha placement (thread-free service origins)
   and synchronous replication, crashing one tenant's origin node promotes
   the standby per in-flight request — and even the victim's answers are
   lossless, not just the neighbours'. *)
let test_failover_isolation () =
  let cfg =
    {
      Serve_config.default with
      tenants =
        List.init 2 (fun i -> tenant (Printf.sprintf "t%d" i) ~rate:3.0 ());
      duration = ms 2;
      shed_after = None;
      ha = true;
    }
  in
  let nodes = Serve.required_nodes cfg in
  let net () = crash_net ~nodes () in
  let baseline = Serve.run ~net:(net ()) cfg in
  (* Tenant 0: service origin node 0, workers {1, 2}; standby is the
     reserved last node. Kill the origin mid-window. *)
  let crashed =
    Serve.run ~net:(net ())
      ~events:[ (ms 1, fun cl -> Dex_core.Cluster.crash_node cl ~node:0) ]
      cfg
  in
  List.iter2
    (fun (b : Serve.tenant_result) (c : Serve.tenant_result) ->
      check_int (b.tr_name ^ " completions lossless") b.tr_completed
        c.tr_completed;
      check_bool (b.tr_name ^ " answers lossless") true
        (Int64.equal b.tr_digest c.tr_digest);
      check_int (b.tr_name ^ " nothing corrupted") 0 c.tr_corrupted)
    baseline.r_tenants crashed.r_tenants

let () =
  Alcotest.run "serve"
    [
      ( "admission",
        [
          Alcotest.test_case "accounting balances" `Quick test_accounting;
          Alcotest.test_case "mixed workloads" `Quick test_mixed_workloads;
          Alcotest.test_case "overload sheds gracefully" `Quick
            test_overload_sheds;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "tenant streams independent" `Quick
            test_tenant_streams_independent;
          Alcotest.test_case "runs deterministic" `Quick test_run_deterministic;
          Alcotest.test_case "arrival processes" `Quick test_arrivals;
        ] );
      ( "fairshare",
        [
          Alcotest.test_case "weighted shares with cap" `Quick test_fairshare;
          Alcotest.test_case "validation" `Quick test_fairshare_validation;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "crash isolation" `Quick test_crash_isolation;
          Alcotest.test_case "failover isolation" `Quick
            test_failover_isolation;
        ] );
    ]
