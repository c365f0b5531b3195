(* Link topology of the simulated machine: one host, N devices.

   Every device hangs off the host on a typed PCIe link whose
   bandwidth and setup latency come from that device's calibration
   profile, so routing a host<->device copy through the topology is
   bit-identical to the old direct [Perf_model.memcpy_time_us] charge.
   Devices may additionally be joined by NVLink-ish peer links;
   device->device traffic takes the peer link when one exists and
   otherwise bounces through the host (a store-and-forward two-hop:
   d2h on the source link, then h2d on the destination link). *)

type endpoint = Host | Dev of int

type link = { bandwidth_gbs : float; latency_us : float }

type route = Pcie | Peer | Two_hop

type t = {
  devices : Device.t array;
  h2d : link array;  (* per device: host -> device *)
  d2h : link array;  (* per device: device -> host *)
  peer : link option array array;  (* peer.(src).(dst), diagonal unused *)
}

(* NVLink-class peer links relative to the device's own host link:
   several times the PCIe bandwidth and a fraction of the per-copy
   setup cost.  These are architecture ratios, not fitted constants,
   which is why they live here rather than in Calibration. *)
let peer_bandwidth_factor = 4.0

let peer_latency_factor = 0.5

let host_links (d : Device.t) =
  ( { bandwidth_gbs = d.Device.pcie_h2d_gbs;
      latency_us = d.Device.memcpy_overhead_us },
    { bandwidth_gbs = d.Device.pcie_d2h_gbs;
      latency_us = d.Device.memcpy_overhead_us } )

let peer_link (d : Device.t) =
  {
    bandwidth_gbs = d.Device.pcie_h2d_gbs *. peer_bandwidth_factor;
    latency_us = d.Device.memcpy_overhead_us *. peer_latency_factor;
  }

let of_devices ?(peer_linked = true) devices =
  if devices = [] then invalid_arg "Topology.of_devices: no devices";
  let devices = Array.of_list devices in
  let n = Array.length devices in
  let h2d = Array.map (fun d -> fst (host_links d)) devices in
  let d2h = Array.map (fun d -> snd (host_links d)) devices in
  let peer =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i <> j && peer_linked then
              (* The link is as fast as its slower endpoint. *)
              let li = peer_link devices.(i) and lj = peer_link devices.(j) in
              Some
                {
                  bandwidth_gbs = Float.min li.bandwidth_gbs lj.bandwidth_gbs;
                  latency_us = Float.max li.latency_us lj.latency_us;
                }
            else None))
  in
  { devices; h2d; d2h; peer }

let single device = of_devices ~peer_linked:false [ device ]

let uniform ~devices:n profile =
  if n < 1 then invalid_arg "Topology.uniform: device count must be positive";
  of_devices (List.init n (fun _ -> profile))

let device_count t = Array.length t.devices

let device t i =
  if i < 0 || i >= Array.length t.devices then
    invalid_arg (Printf.sprintf "Topology.device: no device %d" i);
  t.devices.(i)

let check t i =
  if i < 0 || i >= Array.length t.devices then
    invalid_arg (Printf.sprintf "Topology: no device %d" i)

let route t ~src ~dst =
  match (src, dst) with
  | Host, Host -> invalid_arg "Topology.route: host-to-host"
  | Host, Dev i | Dev i, Host ->
      check t i;
      Pcie
  | Dev i, Dev j ->
      check t i;
      check t j;
      if i = j then invalid_arg "Topology.route: same device"
      else if t.peer.(i).(j) <> None then Peer
      else Two_hop

let link_time_us (l : link) ~bytes =
  (* GB/s = 1e3 bytes/us, as in Perf_model. *)
  l.latency_us +. (float_of_int bytes /. (l.bandwidth_gbs *. 1e3))

let transfer_time_us t ~src ~dst ~bytes =
  match (src, dst) with
  | Host, Host -> invalid_arg "Topology.transfer_time_us: host-to-host"
  | Host, Dev i ->
      check t i;
      link_time_us t.h2d.(i) ~bytes
  | Dev i, Host ->
      check t i;
      link_time_us t.d2h.(i) ~bytes
  | Dev i, Dev j -> (
      check t i;
      check t j;
      if i = j then invalid_arg "Topology.transfer_time_us: same device";
      match t.peer.(i).(j) with
      | Some l -> link_time_us l ~bytes
      | None ->
          (* Store-and-forward through host memory. *)
          link_time_us t.d2h.(i) ~bytes +. link_time_us t.h2d.(j) ~bytes)
