#include "qpip/srq.hh"

#include "qpip/provider.hh"
#include "qpip/queue_pair.hh"

namespace qpip::verbs {

SharedReceiveQueue::SharedReceiveQueue(Provider &provider,
                                       std::size_t max_wr)
    : provider_(provider), nic_(provider.nic()),
      nicAlive_(provider.nic().lifeToken()), maxWr_(max_wr),
      num_(provider.nic().createSrq(&ring_))
{}

SharedReceiveQueue::~SharedReceiveQueue()
{
    if (!nicAlive_.expired())
        nic_.destroySrq(num_);
}

bool
SharedReceiveQueue::postRecv(std::uint64_t wr_id,
                             const MemoryRegion &mr,
                             std::size_t offset, std::size_t length)
{
    const RecvWrSpec wr{wr_id, &mr, offset, length};
    return postRecvList({&wr, 1});
}

bool
SharedReceiveQueue::postRecvList(std::span<const RecvWrSpec> wrs)
{
    return postRecvChain(provider_, ring_, maxWr_, wrs,
                         {num_, false, true, 0});
}

} // namespace qpip::verbs
