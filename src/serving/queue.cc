#include "serving/queue.h"

namespace insitu::serving {

bool
AdmissionQueue::admit(const Request& r)
{
    if (sheds_class(r.cls) || pending_.size() >= capacity_)
        return false;
    pending_.insert(r);
    return true;
}

std::vector<double>
AdmissionQueue::edf_deadlines(size_t max_n) const
{
    std::vector<double> out;
    out.reserve(max_n < pending_.size() ? max_n : pending_.size());
    for (const auto& r : pending_) {
        if (out.size() >= max_n) break;
        out.push_back(r.deadline_s);
    }
    return out;
}

std::vector<Request>
AdmissionQueue::pop_edf(size_t n)
{
    std::vector<Request> out;
    out.reserve(n);
    while (out.size() < n && !pending_.empty()) {
        auto it = pending_.begin();
        out.push_back(*it);
        pending_.erase(it);
    }
    return out;
}

std::vector<Request>
AdmissionQueue::shed_expired(double now)
{
    std::vector<Request> out;
    while (!pending_.empty() &&
           pending_.begin()->deadline_s < now) {
        out.push_back(*pending_.begin());
        pending_.erase(pending_.begin());
    }
    return out;
}

} // namespace insitu::serving
