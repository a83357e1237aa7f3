/**
 * @file
 * Protocol control block demultiplexing: maps a connection four-tuple
 * to its endpoint object. Both the host stack and the QPIP NIC
 * firmware use one of these; the paper calls out "UDP/TCP connection
 * de-multiplexing" as one of the key places where hardware support
 * pays off.
 */

#pragma once

#include <cstddef>
#include <unordered_map>

#include "inet/inet_addr.hh"

namespace qpip::inet {

/** Connection identity: local and remote endpoints. */
struct FourTuple
{
    SockAddr local;
    SockAddr remote;

    auto operator<=>(const FourTuple &) const = default;
};

struct FourTupleHash
{
    std::size_t
    operator()(const FourTuple &t) const
    {
        const SockAddrHash h;
        return h(t.local) * 0x9e3779b97f4a7c15ull ^ h(t.remote);
    }
};

/**
 * Demux table: exact four-tuple matches. Lookup, insert and erase
 * only; nothing walks it, so hash order never reaches the model.
 */
template <typename Conn>
class PcbTable
{
  public:
    void
    insertConn(const FourTuple &t, Conn *conn)
    {
        conns_[t] = conn;
    }

    void eraseConn(const FourTuple &t) { conns_.erase(t); }

    Conn *
    lookupConn(const FourTuple &t) const
    {
        auto it = conns_.find(t);
        return it == conns_.end() ? nullptr : it->second;
    }

    std::size_t connCount() const { return conns_.size(); }

  private:
    std::unordered_map<FourTuple, Conn *, FourTupleHash> conns_;
};

} // namespace qpip::inet
