(** Link topology of the simulated machine: one host plus N devices.

    All transfer-time accounting routes through here.  Each device
    hangs off the host on a PCIe link derived from its own calibration
    profile (so single-device host<->device copies cost exactly what
    {!Perf_model.memcpy_time_us} charged before topologies existed),
    and devices may be joined pairwise by NVLink-ish peer links that
    make device->device migration far cheaper than bouncing through
    host memory. *)

type endpoint = Host | Dev of int  (** device ordinal *)

type link = {
  bandwidth_gbs : float;  (** effective copy bandwidth *)
  latency_us : float;  (** fixed per-transfer setup cost *)
}

type route =
  | Pcie  (** host link of the device involved *)
  | Peer  (** direct device-to-device link *)
  | Two_hop  (** no peer link: d2h on the source, then h2d on the dest *)

type t

val of_devices : ?peer_linked:bool -> Device.t list -> t
(** Build a topology over the given devices (ordinals follow list
    order).  When [peer_linked] (default [true]) every device pair is
    joined by a peer link whose rate is the slower endpoint's
    NVLink-class rate; pass [false] for a PCIe-only box where
    device->device traffic staging through the host.  Raises
    [Invalid_argument] on an empty list. *)

val single : Device.t -> t
(** The pre-topology machine: one device, host link only. *)

val uniform : devices:int -> Device.t -> t
(** [devices] identical cards, fully peer-linked.  Raises
    [Invalid_argument] when [devices < 1]. *)

val device_count : t -> int

val device : t -> int -> Device.t
(** Profile of the given ordinal; raises [Invalid_argument] if out of
    range. *)

val route : t -> src:endpoint -> dst:endpoint -> route
(** Which link class a transfer takes; used for traffic-split
    accounting.  Raises [Invalid_argument] for host->host, same-device,
    or out-of-range endpoints. *)

val transfer_time_us : t -> src:endpoint -> dst:endpoint -> bytes:int -> float
(** Modelled wall time of moving [bytes] from [src] to [dst]: link
    setup latency plus [bytes / bandwidth].  Two-hop routes pay both
    links in full (store-and-forward).  Same error cases as {!route}. *)
