// What the two transports share: traffic accounting and the bounded-queue
// policy.
//
// A transport moves framed messages between replicas over reliable,
// per-(sender,receiver) FIFO links — the channel model Section II-A assumes.
// There is one per execution engine:
//
//  * SimTransport — discrete-event delivery over a LatencyMatrix with
//                   jitter, crash and partition injection (the simulator).
//  * TcpTransport — real loopback or network TCP sockets driven by an
//                   EventLoop (NodeRuntime).
//
// Both consume WireFrames, so a broadcast is serialized at most once no
// matter how many links it fans out to, and both account traffic uniformly
// (TransportStats) so experiments can compare protocols by message and byte
// complexity as well as by encode work.
#pragma once

#include <cstdint>

namespace crsm {

// Uniform traffic accounting. `encode_calls` counts actual Message
// serializations; with fan-out encode-once it is <= messages_sent (for a
// broadcast-heavy protocol, roughly messages_sent / fan-out).
// `messages_dropped` counts messages a faulty simulated link lost
// (SimTransport's crash, partition and drop knobs).
struct TransportStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t encode_calls = 0;
  // Fault-injection accounting (SimTransport DST knobs): messages dropped by
  // the probabilistic drop knob and extra copies delivered by the duplicate
  // knob. Both are also reflected in messages_dropped / messages_delivered.
  std::uint64_t messages_fault_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  // Per-pass wire coalescing (TcpTransport): one "flush" is one sendmsg
  // that wrote bytes; frames_flushed / wire_flushes is the achieved
  // frames-per-flush batching factor.
  std::uint64_t wire_flushes = 0;
  std::uint64_t frames_flushed = 0;
  // TcpTransport rejoin: wake connections this node opened to lower-id
  // peers (its hello sent), and wakes it got from higher-id peers (each one
  // a peer that (re)started and asked to be redialed now rather than after
  // reconnect backoff). A wake made moot by the link coming up first may be
  // torn down unread, so received can trail sent.
  std::uint64_t wakes_sent = 0;
  std::uint64_t wakes_received = 0;
};

}  // namespace crsm
