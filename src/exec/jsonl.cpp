#include "exec/jsonl.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace baco::jsonl {

namespace {

/** End of the string whose opening quote is s[at]; npos if unterminated. */
std::size_t
string_end(std::string_view s, std::size_t at)
{
    for (std::size_t i = at + 1; i < s.size(); ++i) {
        if (s[i] == '\\')
            ++i;  // an escaped character never ends the string
        else if (s[i] == '"')
            return i + 1;
    }
    return std::string_view::npos;
}

/** All of v as a T: absent when empty, malformed on leftovers or range. */
template <class T>
Read
number(std::string_view v, T& out)
{
    if (v.empty())
        return Read::kAbsent;
    const char* end = v.data() + v.size();
    T parsed;
    auto [ptr, ec] = std::from_chars(v.data(), end, parsed);
    if (ec != std::errc() || ptr != end)
        return Read::kMalformed;
    out = parsed;
    return Read::kOk;
}

}  // namespace

std::size_t
value_end(std::string_view s, std::size_t at)
{
    if (at >= s.size())
        return std::string_view::npos;
    if (s[at] == '"')
        return string_end(s, at);
    if (s[at] == '[' || s[at] == '{') {
        int depth = 0;
        for (std::size_t i = at; i < s.size(); ++i) {
            char c = s[i];
            if (c == '"') {
                i = string_end(s, i);
                if (i == std::string_view::npos)
                    return i;
                --i;
            } else if (c == '[' || c == '{') {
                ++depth;
            } else if ((c == ']' || c == '}') && --depth == 0) {
                return i + 1;
            }
        }
        return std::string_view::npos;
    }
    std::size_t i = s.find_first_of(",}]", at);
    if (i == std::string_view::npos)
        i = s.size();
    return i == at ? std::string_view::npos : i;
}

bool
Object::parse(const std::string& text, std::size_t begin, std::size_t end)
{
    text_ = &text;
    fields_.clear();
    std::string_view s = std::string_view(text).substr(0, end);
    std::size_t at = begin;
    if (at >= s.size() || s[at] != '{')
        return false;
    if (++at < s.size() && s[at] == '}')
        return at + 1 == s.size();
    for (;;) {
        if (at >= s.size() || s[at] != '"')
            return false;
        std::size_t key_end = string_end(s, at);
        if (key_end == std::string_view::npos || key_end >= s.size() ||
            s[key_end] != ':')
            return false;
        std::string_view key = s.substr(at + 1, key_end - at - 2);
        at = key_end + 1;
        std::size_t v_end = value_end(s, at);
        if (v_end == std::string_view::npos || v_end >= s.size())
            return false;
        fields_.push_back(Field{key, s.substr(at, v_end - at)});
        at = v_end + 1;
        if (s[v_end] == '}')
            return at == s.size();
        if (s[v_end] != ',')
            return false;
    }
}

std::string_view
Object::raw(std::string_view key) const
{
    for (const Field& f : fields_) {
        if (f.key == key)
            return f.value;
    }
    return {};
}

Read
Object::get(std::string_view key, std::uint64_t& out) const
{
    return number(raw(key), out);
}

Read
Object::get(std::string_view key, int& out) const
{
    return number(raw(key), out);
}

Read
Object::get(std::string_view key, double& out) const
{
    std::string_view v = raw(key);
    if (v.empty() || v.front() != '"')
        return number(v, out);
    // Quoted: only the non-finite tokens the wire writes ("inf", "nan").
    double d = 0.0;
    if (number(v.substr(1, v.size() - 2), d) != Read::kOk || std::isfinite(d))
        return Read::kMalformed;
    out = d;
    return Read::kOk;
}

Read
Object::get(std::string_view key, bool& out) const
{
    std::string_view v = raw(key);
    if (v.empty())
        return Read::kAbsent;
    if (v != "true" && v != "false")
        return Read::kMalformed;
    out = v == "true";
    return Read::kOk;
}

Read
Object::get(std::string_view key, std::string& out) const
{
    std::string_view v = raw(key);
    if (v.empty())
        return Read::kAbsent;
    if (v.front() != '"')
        return Read::kMalformed;
    out.assign(v.substr(1, v.size() - 2));
    return Read::kOk;
}

Read
Object::get(std::string_view key, Configuration& out) const
{
    std::string_view v = raw(key);
    if (v.empty())
        return Read::kAbsent;
    std::size_t at = offset(v);
    bool ok = parse_config(*text_, at, out) && at == offset(v) + v.size();
    return ok ? Read::kOk : Read::kMalformed;
}

std::string
fmt_double(double v)
{
    std::string out;
    append_double(out, v);
    return out;
}

void
append_double(std::string& out, double v)
{
    char buf[32];
    int n = std::snprintf(buf, sizeof buf, "%.17g", v);
    out.append(buf, static_cast<std::size_t>(n));
}

void
write_config(std::string& out, const Configuration& c)
{
    out += '[';
    for (std::size_t i = 0; i < c.size(); ++i) {
        if (i > 0)
            out += ',';
        if (const auto* d = std::get_if<double>(&c[i])) {
            out += "{\"r\":";
            append_double(out, *d);
            out += '}';
        } else if (const auto* v = std::get_if<std::int64_t>(&c[i])) {
            out += "{\"i\":";
            out += std::to_string(*v);
            out += '}';
        } else {
            const auto& p = std::get<Permutation>(c[i]);
            out += "{\"p\":[";
            for (std::size_t k = 0; k < p.size(); ++k) {
                if (k > 0)
                    out += ',';
                out += std::to_string(p[k]);
            }
            out += "]}";
        }
    }
    out += ']';
}

std::string
config_json(const Configuration& c)
{
    std::string out;
    write_config(out, c);
    return out;
}

bool
parse_double_at(const std::string& s, std::size_t& at, double& out)
{
    const char* begin = s.c_str() + at;
    char* end = nullptr;
    out = std::strtod(begin, &end);
    if (end == begin)
        return false;
    at += static_cast<std::size_t>(end - begin);
    return true;
}

bool
parse_int_at(const std::string& s, std::size_t& at, std::int64_t& out)
{
    const char* begin = s.c_str() + at;
    char* end = nullptr;
    out = std::strtoll(begin, &end, 10);
    if (end == begin)
        return false;
    at += static_cast<std::size_t>(end - begin);
    return true;
}

bool
parse_config(const std::string& s, std::size_t& at, Configuration& out)
{
    if (at >= s.size() || s[at] != '[')
        return false;
    ++at;
    out.clear();
    if (at < s.size() && s[at] == ']') {
        ++at;
        return true;
    }
    while (at < s.size()) {
        if (s.compare(at, 5, "{\"r\":") == 0) {
            at += 5;
            double d;
            if (!parse_double_at(s, at, d))
                return false;
            out.emplace_back(d);
        } else if (s.compare(at, 5, "{\"i\":") == 0) {
            at += 5;
            std::int64_t v;
            if (!parse_int_at(s, at, v))
                return false;
            out.emplace_back(v);
        } else if (s.compare(at, 6, "{\"p\":[") == 0) {
            at += 6;
            Permutation p;
            while (at < s.size() && s[at] != ']') {
                std::int64_t v;
                if (!parse_int_at(s, at, v))
                    return false;
                p.push_back(static_cast<int>(v));
                if (at < s.size() && s[at] == ',')
                    ++at;
            }
            if (at >= s.size())
                return false;
            ++at;  // ']'
            out.emplace_back(std::move(p));
        } else {
            return false;
        }
        if (at >= s.size() || s[at] != '}')
            return false;
        ++at;  // '}'
        if (at < s.size() && s[at] == ',') {
            ++at;
            continue;
        }
        break;
    }
    if (at >= s.size() || s[at] != ']')
        return false;
    ++at;
    return true;
}

}  // namespace baco::jsonl
