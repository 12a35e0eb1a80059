#include "exec/eval_cache.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "core/parameter.hpp"
#include "core/search_space.hpp"
#include "exec/jsonl.hpp"

namespace baco {

namespace {

/** FNV-1a over a byte string (stable across platforms/runs). */
std::uint64_t
fnv1a(std::uint64_t h, const std::string& s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    h ^= 0x1f;  // field separator so "ab"+"c" != "a"+"bc"
    h *= 1099511628211ULL;
    return h;
}

/** The namespace/key separator; never appears in canonical keys. */
constexpr char kNsSep = '#';

std::string
namespaced_key(const std::string& ns, const Configuration& c)
{
    std::string key = EvalCache::canonical_key(c);
    if (ns.empty())
        return key;
    std::string out;
    out.reserve(ns.size() + 1 + key.size());
    out += ns;
    out += kNsSep;
    out += key;
    return out;
}

void
append_value(std::string& key, const ParamValue& v)
{
    char buf[64];
    if (const auto* d = std::get_if<double>(&v)) {
        key += "r:";
        key += jsonl::fmt_double(*d);  // exact IEEE round-trip
    } else if (const auto* i = std::get_if<std::int64_t>(&v)) {
        std::snprintf(buf, sizeof buf, "i:%" PRId64, *i);
        key += buf;
    } else {
        const auto& p = std::get<Permutation>(v);
        key += "p:";
        for (std::size_t k = 0; k < p.size(); ++k) {
            if (k > 0)
                key += ',';
            std::snprintf(buf, sizeof buf, "%d", p[k]);
            key += buf;
        }
    }
}

}  // namespace

std::string
EvalCache::canonical_key(const Configuration& c)
{
    std::string key;
    key.reserve(c.size() * 8);
    for (std::size_t i = 0; i < c.size(); ++i) {
        if (i > 0)
            key += '|';
        append_value(key, c[i]);
    }
    return key;
}

std::string
EvalCache::space_fingerprint(const SearchSpace& space)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < space.num_params(); ++i) {
        const Parameter& p = space.param(i);
        h = fnv1a(h, p.name());
        h = fnv1a(h, std::to_string(static_cast<int>(p.kind())));
        if (p.kind() == ParamKind::kReal) {
            const auto& rp = static_cast<const RealParameter&>(p);
            h = fnv1a(h, jsonl::fmt_double(rp.lo()));
            h = fnv1a(h, jsonl::fmt_double(rp.hi()));
        } else {
            for (std::size_t k = 0; k < p.num_values(); ++k)
                h = fnv1a(h, p.value_to_string(p.value_at(k)));
        }
    }
    for (const Constraint& c : space.constraints()) {
        h = fnv1a(h, c.source());
        for (const std::string& v : c.vars())
            h = fnv1a(h, v);
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
}

std::string
EvalCache::namespace_key(const std::string& benchmark_name,
                         const SearchSpace& space)
{
    return benchmark_name + "@" + space_fingerprint(space);
}

std::optional<EvalResult>
EvalCache::lookup(const Configuration& c) const
{
    return lookup(std::string{}, c);
}

std::optional<EvalResult>
EvalCache::lookup(const std::string& ns, const Configuration& c) const
{
    std::string key = namespaced_key(ns, c);
    MutexLock lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++misses_;
        return std::nullopt;
    }
    ++hits_;
    ++it->second.hits;
    // Refresh recency: a hit entry moves to the front of the LRU order.
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.result;
}

void
EvalCache::insert(const Configuration& c, const EvalResult& r)
{
    insert(std::string{}, c, r);
}

void
EvalCache::insert(const std::string& ns, const Configuration& c,
                  const EvalResult& r)
{
    std::string key = namespaced_key(ns, c);
    MutexLock lock(mutex_);
    insert_locked(std::move(key), r);
}

void
EvalCache::insert_locked(std::string key, const EvalResult& r)
{
    auto [it, inserted] = entries_.emplace(std::move(key), Entry{});
    if (!inserted)
        return;  // first write wins
    it->second.result = r;
    lru_.push_front(&it->first);
    it->second.lru_it = lru_.begin();
    enforce_bound_locked();
}

void
EvalCache::enforce_bound_locked()
{
    if (max_entries_ == 0)
        return;
    while (entries_.size() > max_entries_) {
        auto victim = entries_.find(*lru_.back());
        ++evictions_;
        evicted_hits_ += victim->second.hits;
        entries_.erase(victim);
        lru_.pop_back();
    }
}

void
EvalCache::set_max_entries(std::size_t n)
{
    MutexLock lock(mutex_);
    max_entries_ = n;
    enforce_bound_locked();
}

std::size_t
EvalCache::max_entries() const
{
    MutexLock lock(mutex_);
    return max_entries_;
}

std::uint64_t
EvalCache::evictions() const
{
    MutexLock lock(mutex_);
    return evictions_;
}

std::uint64_t
EvalCache::evicted_hits() const
{
    MutexLock lock(mutex_);
    return evicted_hits_;
}

std::size_t
EvalCache::size() const
{
    MutexLock lock(mutex_);
    return entries_.size();
}

std::uint64_t
EvalCache::hits() const
{
    MutexLock lock(mutex_);
    return hits_;
}

std::uint64_t
EvalCache::misses() const
{
    MutexLock lock(mutex_);
    return misses_;
}

void
EvalCache::clear()
{
    MutexLock lock(mutex_);
    entries_.clear();
    lru_.clear();
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
    evicted_hits_ = 0;
}

bool
EvalCache::save(const std::string& path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    MutexLock lock(mutex_);
    // Least-recently-used first: load() inserts in file order, so the
    // hottest entries end up most recent and survive a bounded reload.
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
        const std::string& key = **it;
        const EvalResult& r = entries_.at(key).result;
        out << "{\"key\":\"" << key
            << "\",\"value\":" << jsonl::fmt_double(r.value)
            << ",\"feasible\":" << (r.feasible ? "true" : "false") << "}\n";
    }
    return static_cast<bool>(out);
}

bool
EvalCache::load(const std::string& path, std::size_t* corrupt_lines)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    jsonl::Object obj;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string key;
        EvalResult r;
        if (!obj.parse(line) || obj.get("key", key) != jsonl::Read::kOk ||
            obj.get("value", r.value) != jsonl::Read::kOk ||
            obj.get("feasible", r.feasible) != jsonl::Read::kOk) {
            if (corrupt_lines)
                ++*corrupt_lines;
            continue;
        }
        MutexLock lock(mutex_);
        insert_locked(std::move(key), r);
    }
    return true;
}

}  // namespace baco
