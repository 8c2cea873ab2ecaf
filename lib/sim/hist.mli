(** UVMHIST-style event history.

    The real UVM artifact ships UVMHIST: per-subsystem bounded ring
    buffers of timestamped kernel events, cheap enough to leave compiled
    in and gathered per machine.  This is its simulator counterpart: a
    [Hist.t] lives next to {!Stats.t} on a simulated machine, each
    subsystem writes typed events stamped with simulated time, and old
    events are overwritten once a subsystem's ring is full.

    Recording is gated on a single [enabled] flag so an untraced run
    pays one boolean check per call site and allocates nothing. *)

type subsystem = Fault | Map | Pdaemon | Pager | Swap | Ipc

val all_subsystems : subsystem list
(** In a fixed order, used by exporters for stable numbering. *)

val subsystem_name : subsystem -> string

val subsystem_index : subsystem -> int
(** Position in {!all_subsystems}, from 0. *)

type event = {
  seq : int;  (** global record order, breaks timestamp ties *)
  ts : float;  (** simulated microseconds at the event (span start) *)
  dur : float;  (** span length in simulated microseconds; 0 = instant *)
  subsys : subsystem;
  name : string;
  detail : (string * string) list;  (** free-form key/value arguments *)
}

type t

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** [capacity] bounds each subsystem's ring (default 4096 events).
    Disabled histories ([enabled:false], the default) record nothing. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val record :
  t ->
  subsys:subsystem ->
  ts:float ->
  ?dur:float ->
  ?detail:(string * string) list ->
  string ->
  unit
(** [record t ~subsys ~ts ~dur ~detail name] appends an event to the
    subsystem's ring, overwriting the oldest once full.  A no-op when
    the history is disabled. *)

val events : t -> event list
(** All retained events across subsystems, sorted by simulated
    timestamp (sequence number breaking ties). *)

val events_of : t -> subsystem -> event list
(** One subsystem's retained events in record order. *)

val recorded : t -> int
(** Total events ever recorded, including overwritten ones. *)

val retained : t -> int
(** Events currently held in the rings. *)

val dropped : t -> int
(** [recorded - retained]: events lost to ring wraparound. *)

val clear : t -> unit
