(* serve-mix: an open loop in simulated time. Four tenants draw from one
   request mix; two arrive as Poisson streams and two as bursty MMPPs, with
   shedding and fair sharing on. Bursts overload the admission queue, so
   the shedder works too. Arrivals are simulated events: every request is
   generated exactly at its due instant (generator lateness is zero by
   construction) and its sojourn is timed from that instant. *)

open Dex_apps
module A = App_common
module M = Measure
module SC = Dex_serve.Serve_config
module Serve = Dex_serve.Serve
module Stats = Dex_sim.Stats
module Histogram = Dex_sim.Histogram
module Time_ns = Dex_sim.Time_ns
module Cluster = Dex_core.Cluster
module Fabric = Dex_net.Fabric

let default_seed = SC.default.SC.seed
let window = Time_ns.ms 100

(* Each run measures this many windows, each with its own arrival streams:
   one window's sojourn median depends on its draw of request types and
   bursts, so several are pooled. *)
let windows = 12
let window_seed base k = base + (1_000_003 * k)

(* Goodput counts completions within this sojourn limit: about three times
   the uncontended service time of a request (~1 ms). Refused and shed
   requests count as misses. *)
let limit = Time_ns.ms 3

let mix = SC.Mix [ SC.Ep SC.tiny_ep; SC.Blk SC.tiny_blk; SC.Kmn SC.tiny_kmn ]

let config ~seed ~duration =
  let tenant name arrival =
    { SC.default_tenant with SC.t_name = name; t_arrival = arrival; t_workload = mix }
  in
  let bursty =
    SC.Mmpp { calm = 1.5; burst = 8.0; dwell_calm_ms = 1.0; dwell_burst_ms = 0.5 }
  in
  {
    SC.default with
    SC.tenants =
      [
        tenant "poisson0" (SC.Poisson 2.5);
        tenant "poisson1" (SC.Poisson 2.5);
        tenant "bursty0" bursty;
        tenant "bursty1" bursty;
      ];
    seed;
    duration;
  }

(* Calibration: each request type once, alone, on a dedicated two-node
   rack shaped like a tenant's placement. Gives the uncontended service
   time the speedup metric divides by, and reaches the protocol and
   process layers, which a serve run keeps out of sight. *)
type calib = {
  name : string;
  res : A.result;
  cap : Rows.capture;
  host : float;
  minor : float;
  ref_s : float;  (** host seconds of the reference answer *)
}

let calibrate ~spans ~seed =
  let tpl = SC.default_tenant in
  let one name body reference =
    let expected, ref_s, _ =
      M.timed (fun () ->
          Spans.with_span spans ~cat:"apps.reference" (name ^ " reference")
            reference)
    in
    let ctx = ref None in
    let res, host, minor =
      M.timed (fun () ->
          Spans.with_span spans ~cat:"run_app" (name ^ " uncontended") (fun () ->
              A.run_app ~name ~nodes:tpl.SC.t_nodes ~variant:A.Optimized
                ~threads_per_node:tpl.SC.t_threads_per_node ~seed (fun c th ->
                  ctx := Some c;
                  body c th)))
    in
    M.check (res.A.checksum = expected) "serve-mix calibration %s checksum %Ld, host reference %Ld"
      name res.A.checksum expected;
    { name; res; cap = Rows.capture (Option.get !ctx); host; minor; ref_s }
  in
  [
    one "EP" (Ep.body SC.tiny_ep) (fun () -> Ep.reference_checksum SC.tiny_ep ~seed);
    one "BLK" (Blk.body SC.tiny_blk) (fun () -> Blk.reference_checksum SC.tiny_blk ~seed);
    one "KMN" (Kmn.body SC.tiny_kmn) (fun () -> Kmn.reference_checksum SC.tiny_kmn ~seed);
  ]

(* One window. The instrumented form adds scheduled events: at t=0 one
   keeps the cluster (for the fabric counters) and five quarter marks
   record host time and heap size. Their recording does the same work in
   traced and untraced runs; spans are built from it afterwards. *)
type marks = { m_host : float array; m_heap : float array }

type obs = {
  r : Serve.result;
  host : float;
  minor : float;
  fabric : ((string * int) list * int) option;
  marks : marks option;
}

let run_window ~instrumented cfg =
  if not instrumented then
    let r, host, minor = M.timed (fun () -> Serve.run cfg) in
    { r; host; minor; fabric = None; marks = None }
  else begin
    let m = { m_host = Array.make 5 0.0; m_heap = Array.make 5 0.0 } in
    let cl = ref None in
    let mark q _ =
      m.m_host.(q) <- M.now ();
      m.m_heap.(q) <- float_of_int (Gc.quick_stat ()).Gc.heap_words
    in
    let events =
      (0, fun c -> cl := Some c)
      :: List.init 5 (fun q -> (cfg.SC.duration * q / 4, mark q))
    in
    let r, host, minor = M.timed (fun () -> Serve.run ~events cfg) in
    let fab = Cluster.fabric (Option.get !cl) in
    let fabric =
      ( Stats.to_list (Fabric.stats fab),
        Fabric.send_pool_waits fab + Fabric.recv_pool_waits fab + Fabric.sink_waits fab )
    in
    { r; host; minor; fabric = Some fabric; marks = Some m }
  end

let sojourns (r : Serve.result) =
  List.fold_left
    (fun acc t -> Histogram.merge acc t.Serve.tr_sojourn)
    (Histogram.create ()) r.Serve.r_tenants

let sim_digest (r : Serve.result) =
  String.concat " "
    (Printf.sprintf "sim_end=%d [%s]" r.Serve.r_sim_time
       (Rows.stats_digest (Stats.to_list r.Serve.r_stats))
    :: List.map
         (fun t ->
           Printf.sprintf "%s:o=%d a=%d r=%d s=%d c=%d x=%d q=%d d=%Ld soj{%s}"
             t.Serve.tr_name t.tr_offered t.tr_admitted t.tr_rejected t.tr_shed
             t.tr_completed t.tr_corrupted t.tr_queue_peak t.tr_digest
             (Rows.hist_digest t.tr_sojourn))
         r.Serve.r_tenants)

let full_digest o =
  Printf.sprintf "%s%s minor_words=%.0f" (sim_digest o.r)
    (match o.fabric with
    | None -> ""
    | Some (l, waits) -> Printf.sprintf " pool_waits=%d fabric[%s]" waits (Rows.stats_digest l))
    o.minor

(* Set-up: the calibration runs, then a short window twice, bare and
   instrumented, which must simulate the same execution. *)
let check_window = Time_ns.ms 20
let setup_reps = 3

let setup ~spans ~seed =
  let calib = calibrate ~spans ~seed in
  let cfg = config ~seed ~duration:check_window in
  let bare, instr =
    Spans.with_span spans ~cat:"serve" "check window" (fun () ->
        (run_window ~instrumented:false cfg, run_window ~instrumented:true cfg))
  in
  M.same ~what:"serve-mix check window, bare vs instrumented" (sim_digest bare.r)
    (sim_digest instr.r);
  (calib, instr)

let run ~spans ~user_seed ~seconds =
  let base = Option.value user_seed ~default:default_seed in
  let setups =
    List.init setup_reps (fun i ->
        let c, t, _ =
          M.timed (fun () ->
              Spans.with_span spans ~cat:"setup" (Printf.sprintf "setup %d" (i + 1))
                (fun () -> setup ~spans ~seed:base))
        in
        (c, t))
  in
  let calib, check = fst (List.hd setups) in
  let calib_digest c = String.concat " " (List.map (fun k -> Rows.sim_digest k.res) c) in
  List.iteri
    (fun i ((c, w), _) ->
      M.same ~what:"serve-mix calibration" (calib_digest calib) (calib_digest c);
      M.same ~what:"serve-mix check window" (sim_digest check.r) (sim_digest w.r);
      (* The first set-up fills the apps' per-seed caches; allocation
         repeats from the second on. *)
      if i > 1 then
        M.same ~what:"serve-mix check window" (full_digest (snd (fst (List.nth setups 1)))) (full_digest w))
    setups;
  (* Timed part: windows, each on fresh arrival streams, until [seconds]
     have elapsed and at least [windows] ran. The first [windows] give the
     simulated metrics; every window gives a host-time sample. *)
  let t_start = M.now () in
  let obs = ref [] and k = ref 0 in
  while !k < windows || M.now () -. t_start < seconds do
    Gc.full_major ();
    let cfg = config ~seed:(window_seed base !k) ~duration:window in
    let o =
      Spans.with_span spans ~cat:"serve" (Printf.sprintf "Serve.run window %d" (!k + 1))
        (fun () ->
          let o = run_window ~instrumented:true cfg in
          Option.iter
            (fun m ->
              for q = 0 to 3 do
                Spans.record spans ~parent:(Spans.current spans) ~cat:"serve.quarter"
                  (Printf.sprintf "quarter %d" (q + 1))
                  m.m_host.(q) m.m_host.(q + 1)
              done)
            o.marks;
          o)
    in
    obs := o :: !obs;
    incr k
  done;
  let obs = List.rev !obs in
  M.note_digest (calib_digest calib);
  List.iteri (fun i o -> if i < windows then M.note_digest (full_digest o)) obs;
  (* The serving layer checks every completed request against its host
     reference; a mismatch is counted as corrupted. *)
  List.iteri
    (fun i o ->
      let get k = Stats.get o.r.Serve.r_stats k in
      M.tally ~checked:(get "serve.completed") ~wrong:(get "serve.corrupted")
        (Printf.sprintf "serve-mix window %d: %d requests returned a wrong checksum"
           (i + 1) (get "serve.corrupted")))
    obs;
  (List.map (fun ((c, _), t) -> (c, t)) setups, obs)

let report (setups, obs) =
  let calib = fst (List.hd setups) and setup_times = List.map snd setups in
  let measured = List.filteri (fun i _ -> i < windows) obs in
  let sum_stat k =
    float_of_int
      (List.fold_left (fun acc o -> acc + Stats.get o.r.Serve.r_stats k) 0 measured)
  in
  let soj =
    List.fold_left (fun acc o -> Histogram.merge acc (sojourns o.r)) (Histogram.create ()) measured
  in
  let soj_l = Histogram.to_list soj in
  let p99 = Histogram.percentile soj 99.0 in
  let host = M.median (List.map (fun o -> o.host) obs) in
  let completed = sum_stat "serve.completed" in
  let marks = List.filter_map (fun o -> o.marks) obs in
  let sim_ms = float_of_int (windows * window) /. 1e6 in
  let unc = M.geomean (List.map (fun (c : calib) -> float_of_int c.res.A.sim_time) calib) in
  let soj_geo = M.geomean (List.map float_of_int soj_l) in
  let e = M.emit M.End_to_end and l = M.emit M.Per_layer in
  e "host_s" "s" host;
  e "setup_s" "s" (M.median setup_times);
  (* Each window's peak: the largest heap seen at its quarter marks. *)
  e "peak_heap_mb" "MB"
    (M.median (List.map (fun m -> Array.fold_left max 0.0 m.m_heap) marks)
    *. float_of_int (Sys.word_size / 8) /. 1048576.0);
  e "sim_ms_geomean" "ms" (soj_geo /. 1e6);
  e "speedup_geomean" "x" (unc /. soj_geo);
  e "sojourn_p50_us" "us" (Rows.us_of_ns (Histogram.percentile soj 50.0));
  e "sojourn_p99_us" "us" (Rows.us_of_ns p99);
  e "goodput_per_ms" "1/ms"
    (float_of_int (List.length (List.filter (fun s -> s <= limit) soj_l)) /. sim_ms);
  e "host_us_per_req" "us"
    (M.median
       (List.map
          (fun o -> o.host /. float_of_int (Stats.get o.r.Serve.r_stats "serve.completed") *. 1e6)
          obs));
  (* Per layer. A serve run keeps its processes out of reach, so the
     calibration runs stand in for the protocol and process layers; the
     fabric and the serving layer are read from the measured windows. *)
  l "apps.reference_s" "s"
    (M.median (List.map (fun (c, _) -> M.sum (List.map (fun (k : calib) -> k.ref_s) c)) setups));
  l "apps.reference_cold_s" "s" (M.sum (List.map (fun (c : calib) -> c.ref_s) calib));
  l "apps.baseline_host_s" "s" (M.sum (List.map (fun (c : calib) -> c.host) calib));
  l "apps.baseline_alloc_mwords" "Mwords" (M.sum (List.map (fun (c : calib) -> c.minor) calib) /. 1e6);
  let total f = List.fold_left (fun acc (c : calib) -> acc + f c.res) 0 calib in
  let faults = total (fun r -> r.A.faults) and retries = total (fun r -> r.A.retries) in
  l "coherence.faults" "count" (float_of_int faults);
  l "coherence.retries" "count" (float_of_int retries);
  l "coherence.coalesced" "count" (float_of_int (total (fun r -> r.A.coalesced)));
  l "coherence.useful_frac" "ratio" (M.ratio (float_of_int faults) (float_of_int (faults + retries)));
  let lat =
    List.fold_left (fun acc (c : calib) -> Histogram.merge acc c.cap.Rows.fault_lat) (Histogram.create ()) calib
  in
  let pct p = if Histogram.count lat = 0 then 0.0 else Rows.us_of_ns (Histogram.percentile lat p) in
  l "coherence.fault_p50_us" "us" (pct 50.0);
  l "coherence.fault_p99_us" "us" (pct 99.0);
  let attempts = float_of_int (faults + retries) in
  l "coherence.host_us_per_attempt" "us"
    (M.ratio (M.sum (List.map (fun (c : calib) -> c.host) calib)) attempts *. 1e6);
  l "coherence.alloc_words_per_attempt" "words"
    (M.ratio (M.sum (List.map (fun (c : calib) -> c.minor) calib)) attempts);
  let msgs, bytes, rdma, waits =
    List.fold_left
      (fun (m, b, d, w) o ->
        let fab, waits = Option.get o.fabric in
        let m', b', d' = Rows.fabric_totals fab in
        (m + m', b + b', d + d', w + waits))
      (0, 0, 0, 0) measured
  in
  l "fabric.msgs" "count" (float_of_int msgs);
  l "fabric.bytes" "bytes" (float_of_int bytes);
  l "fabric.rdma_frac" "ratio" (M.ratio (float_of_int rdma) (float_of_int msgs));
  l "fabric.pool_waits" "count" (float_of_int waits);
  l "fabric.host_ns_per_msg" "ns"
    (M.ratio (M.sum (List.map (fun o -> o.host) measured)) (float_of_int msgs) *. 1e9);
  l "process.delegations" "count"
    (float_of_int (List.fold_left (fun acc (c : calib) -> acc + c.cap.Rows.delegations) 0 calib));
  l "process.migrations" "count" (float_of_int (total (fun r -> r.A.migrations)));
  l "process.migration_fwd_frac" "ratio"
    (M.ratio
       (float_of_int
          (List.fold_left (fun acc (c : calib) -> acc + List.fold_left ( + ) 0 c.cap.Rows.fwd_ns) 0 calib))
       (float_of_int (total (fun r -> r.A.sim_time * r.A.threads))));
  l "serve.offered" "count" (sum_stat "serve.offered");
  l "serve.completed" "count" completed;
  l "serve.shed" "count" (sum_stat "serve.shed");
  l "serve.rejected" "count" (sum_stat "serve.rejected");
  l "serve.queue_peak" "count"
    (float_of_int
       (List.fold_left
          (fun acc o -> List.fold_left (fun acc t -> max acc t.Serve.tr_queue_peak) acc o.r.Serve.r_tenants)
          0 measured));
  (* Host time of the window's last quarter over its first: the serving
     loop's per-request cost grows with the processes it has served. *)
  l "serve.host_growth" "x"
    (M.median (List.map (fun m -> (m.m_host.(4) -. m.m_host.(3)) /. (m.m_host.(1) -. m.m_host.(0))) marks));
  l "serve.alloc_words_per_req" "words" (M.sum (List.map (fun o -> o.minor) measured) /. completed);
  l "serve.heap_growth_mwords" "Mwords"
    (M.median (List.map (fun m -> (m.m_heap.(4) -. m.m_heap.(0)) /. 1e6) marks));
  l "trace.host_s" "s" host;
  let beyond = List.length (List.filter (fun s -> s > p99) soj_l) in
  Printf.printf
    "  serve-mix: open loop, %d tenants, %d windows of %d ms measured (%d run), \
     seeds %d + 1000003 k;\n\
    \  generator lateness 0 (arrivals are simulated events, sojourn timed from each due instant)\n\
    \  offered %.0f  completed %.0f  shed %.0f  rejected %.0f  corrupted %.0f\n\
    \  sojourn samples %d (%d beyond p99); goodput limit %d us; host %.3f s per window (median)\n"
    (List.length (List.hd measured).r.Serve.r_config.SC.tenants) windows (window / 1_000_000)
    (List.length obs) (List.hd measured).r.Serve.r_config.SC.seed
    (sum_stat "serve.offered") completed (sum_stat "serve.shed") (sum_stat "serve.rejected")
    (sum_stat "serve.corrupted") (List.length soj_l) beyond (limit / 1000) host;
  Printf.printf "  host s per window: %s\n  set-up s: %s\n"
    (String.concat " " (List.map (fun o -> Printf.sprintf "%.3f" o.host) obs))
    (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times));
  List.iter
    (fun (c : calib) ->
      Printf.printf "  calibration %-4s sim %.3f ms uncontended  faults %d  checksum %Ld\n"
        c.name (float_of_int c.res.A.sim_time /. 1e6) c.res.A.faults c.res.A.checksum)
    calib
