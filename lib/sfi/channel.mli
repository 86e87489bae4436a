(** Zero-copy, sender-checked channels.

    §3: "after passing an object reference to a function {e or
    channel}, the caller loses access to the object". A channel is a
    bounded queue that one sender domain fills: {!send} consumes the
    caller's {!Linear.Own.t} (the zero-copy ownership transfer — no
    bytes move). The sender is checked against the thread-local
    current domain, so a compromised domain cannot inject into a
    channel it is not the sender of. The system only fills channels
    (the storm's [Channel_full] fault), so there is no receive side.

    Sending charges the virtual clock for the queue bookkeeping only —
    constant cost, independent of payload size, which is the entire
    point versus copying SFI. *)

type 'a t

type error =
  | Full           (** Bounded capacity reached; caller keeps nothing —
                       the message is dropped with the send (the usual
                       lossy NIC-queue semantics); use {!send_exn}
                       to treat this as a bug instead. *)
  | Wrong_domain of Domain_id.t
      (** The calling domain is not the sender. *)

val create :
  clock:Cycles.Clock.t ->
  sender:Pdomain.t ->
  capacity:int ->
  ?label:string ->
  unit ->
  'a t
(** Only [sender] (or the kernel) may send; nothing receives. *)

val send : 'a t -> 'a Linear.Own.t -> (unit, error) result
(** Consumes the handle unconditionally (ownership transfers even into
    a failed send — as with {!Rref.invoke_move}); on [Full] the value
    is dropped. Must be called from the sender domain (or the
    kernel). *)

val send_exn : 'a t -> 'a Linear.Own.t -> (unit, error) result
(** Like {!send} but panics on [Full] — for pipelines where drops are
    a bug to be contained by SFI rather than tolerated. The panic is
    attributed to the {e sending} domain: when raised inside the
    sender's own {!Pdomain.execute} scope the boundary catch does that
    naturally, and when raised from any other context (kernel code, a
    relaying domain) the sender is marked [Failed] directly before the
    unwind — either way the overflow lands on the sender's panic
    counter and fires the manager's [Domain_failed] hook, instead of
    surfacing as a generic engine error. *)

val length : 'a t -> int
(** Messages accepted so far: nothing drains a channel, so once this
    reaches {!capacity} every send fails with [Full]. *)

val capacity : 'a t -> int
