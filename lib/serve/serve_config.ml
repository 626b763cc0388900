open Dex_apps

type arrival =
  | Poisson of float
  | Mmpp of {
      calm : float;
      burst : float;
      dwell_calm_ms : float;
      dwell_burst_ms : float;
    }

type workload =
  | Ep of Ep.params
  | Blk of Blk.params
  | Kmn of Kmn.params
  | Mix of workload list

type tenant = {
  t_name : string;
  t_arrival : arrival;
  t_workload : workload;
  t_weight : float;
  t_max_inflight : int;
  t_max_pending : int;
  t_req_bytes : int;
  t_nodes : int;
  t_threads_per_node : int;
}

type t = {
  tenants : tenant list;
  seed : int;
  duration : Dex_sim.Time_ns.t;
  shed_after : Dex_sim.Time_ns.t option;
  fair : bool;
  nn_cap : float;
  gate_bytes_per_us : float;
  ha : bool;
}

(* Request-scale presets: a request must cost hundreds of microseconds of
   simulated time, not the seconds of the paper's full workloads, or an
   open-loop tenant could never be served faster than it arrives. *)
let tiny_ep = { Ep.pairs = 1024; batch = 256; ns_per_pair = 25.0 }

let tiny_blk =
  { Blk.options = 256; rounds = 2; ns_per_option = 150.0; chunk = 128 }

let tiny_kmn =
  {
    Kmn.points = 256;
    clusters = 4;
    iterations = 2;
    ns_per_point = 300.0;
    chunk_points = 64;
  }

let default_tenant =
  {
    t_name = "tenant";
    t_arrival = Poisson 2.0;
    t_workload = Ep tiny_ep;
    t_weight = 1.0;
    t_max_inflight = 4;
    t_max_pending = 64;
    t_req_bytes = 8192;
    t_nodes = 2;
    t_threads_per_node = 2;
  }

let default =
  {
    tenants =
      List.init 8 (fun i ->
          { default_tenant with t_name = Printf.sprintf "t%02d" i });
    seed = 42;
    duration = Dex_sim.Time_ns.ms 6;
    shed_after = Some (Dex_sim.Time_ns.ms 2);
    fair = true;
    nn_cap = 0.5;
    gate_bytes_per_us = 2048.0;
    ha = false;
  }

let rec validate_workload = function
  | Ep p ->
      if p.Ep.pairs <= 0 || p.Ep.batch <= 0 then
        invalid_arg "Serve_config: bad EP params"
  | Blk p ->
      if p.Blk.options <= 0 || p.Blk.rounds <= 0 then
        invalid_arg "Serve_config: bad BLK params"
  | Kmn p ->
      if p.Kmn.points <= 0 || p.Kmn.iterations <= 0 then
        invalid_arg "Serve_config: bad KMN params"
  | Mix [] -> invalid_arg "Serve_config: empty workload mix"
  | Mix l -> List.iter validate_workload l

let validate_arrival = function
  | Poisson r ->
      if r <= 0.0 then invalid_arg "Serve_config: Poisson rate must be > 0"
  | Mmpp { calm; burst; dwell_calm_ms; dwell_burst_ms } ->
      if calm <= 0.0 || burst <= 0.0 then
        invalid_arg "Serve_config: MMPP rates must be > 0";
      if dwell_calm_ms <= 0.0 || dwell_burst_ms <= 0.0 then
        invalid_arg "Serve_config: MMPP dwell times must be > 0"

let validate t =
  if t.tenants = [] then invalid_arg "Serve_config: no tenants";
  List.iter
    (fun ten ->
      validate_arrival ten.t_arrival;
      validate_workload ten.t_workload;
      if ten.t_weight <= 0.0 then
        invalid_arg "Serve_config: tenant weight must be > 0";
      if ten.t_max_inflight < 1 then
        invalid_arg "Serve_config: t_max_inflight must be >= 1";
      if ten.t_max_pending < 0 then
        invalid_arg "Serve_config: t_max_pending must be >= 0";
      if ten.t_req_bytes < 0 then
        invalid_arg "Serve_config: t_req_bytes must be >= 0";
      if ten.t_nodes < 1 then
        invalid_arg "Serve_config: t_nodes must be >= 1";
      if ten.t_threads_per_node < 1 then
        invalid_arg "Serve_config: t_threads_per_node must be >= 1")
    t.tenants;
  let names = List.map (fun ten -> ten.t_name) t.tenants in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Serve_config: duplicate tenant name";
  if t.duration <= 0 then invalid_arg "Serve_config: duration must be > 0";
  (match t.shed_after with
  | Some d when d <= 0 -> invalid_arg "Serve_config: shed_after must be > 0"
  | _ -> ());
  if t.nn_cap <= 0.0 || t.nn_cap > 1.0 then
    invalid_arg "Serve_config: nn_cap must be in (0, 1]";
  if t.gate_bytes_per_us <= 0.0 then
    invalid_arg "Serve_config: gate_bytes_per_us must be > 0"
