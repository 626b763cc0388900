open Dex_sim

type t = {
  cores_per_node : int;
  mem_bw_bytes_per_us : float;
  mem_contention : float;
  syscall : Time_ns.t;
  context_capture : Time_ns.t;
  first_session_setup : Time_ns.t;
  context_size : int;
  remote_worker_create : Time_ns.t;
  address_space_init : Time_ns.t;
  thread_create_first : Time_ns.t;
  thread_create : Time_ns.t;
  context_install : Time_ns.t;
  sched_enqueue : Time_ns.t;
  backward_capture : Time_ns.t;
  backward_update : Time_ns.t;
  delegation_dispatch : Time_ns.t;
  batch_delegation : bool;
  delegation_batch_max : int;
  futex_op : Time_ns.t;
  vma_op : Time_ns.t;
  spawn_thread : Time_ns.t;
  file_op : Time_ns.t;
  storage_bytes_per_us : float;
  autopilot : Time_ns.t option;
}

let default =
  {
    cores_per_node = 8;
    (* Xeon Silver 4110: ~6 DDR4-2400 GB/s usable per socket. *)
    mem_bw_bytes_per_us = 6_000.0;
    mem_contention = 0.45;
    syscall = Time_ns.ns 300;
    context_capture = Time_ns.of_us_f 6.6;
    first_session_setup = Time_ns.of_us_f 5.5;
    context_size = 512;
    remote_worker_create = Time_ns.us 620;
    address_space_init = Time_ns.us 55;
    thread_create_first = Time_ns.us 100;
    thread_create = Time_ns.us 205;
    context_install = Time_ns.us 20;
    sched_enqueue = Time_ns.us 5;
    backward_capture = Time_ns.of_us_f 6.6;
    backward_update = Time_ns.of_us_f 18.1;
    delegation_dispatch = Time_ns.of_us_f 2.8;
    batch_delegation = false;
    delegation_batch_max = 8;
    futex_op = Time_ns.of_us_f 1.1;
    vma_op = Time_ns.of_us_f 1.8;
    spawn_thread = Time_ns.us 18;
    file_op = Time_ns.of_us_f 2.4;
    (* NAS appliance shared by the rack over the fabric: ~12 GB/s. *)
    storage_bytes_per_us = 12_000.0;
    autopilot = None;
  }
