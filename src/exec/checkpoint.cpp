#include "exec/checkpoint.hpp"

#include <cstdio>
#include <fstream>

#include "exec/jsonl.hpp"

namespace baco {

bool
save_checkpoint(const std::string& path, const AskTellTuner& tuner)
{
    return save_checkpoint(path, tuner, {});
}

bool
save_checkpoint(const std::string& path, const AskTellTuner& tuner,
                const std::vector<PendingEval>& pending)
{
    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            return false;
        const TuningHistory& h = tuner.history();
        out << "{\"type\":\"meta\",\"version\":1,\"seed\":"
            << tuner.run_seed()
            << ",\"tuner_seconds\":" << jsonl::fmt_double(h.tuner_seconds)
            << ",\"eval_seconds\":" << jsonl::fmt_double(h.eval_seconds)
            << "}\n";
        for (const Observation& o : h.observations) {
            out << "{\"type\":\"obs\",\"config\":"
                << jsonl::config_json(o.config)
                << ",\"value\":" << jsonl::fmt_double(o.value)
                << ",\"feasible\":" << (o.feasible ? "true" : "false")
                << "}\n";
        }
        for (const PendingEval& p : pending) {
            out << "{\"type\":\"pending\",\"index\":" << p.index
                << ",\"config\":" << jsonl::config_json(p.config) << "}\n";
        }
        out << "{\"type\":\"state\",\"rng\":\"" << tuner.sampler_state()
            << "\"}\n";
        if (!out)
            return false;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::optional<CheckpointData>
load_checkpoint(const std::string& path)
{
    using jsonl::Read;
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    CheckpointData data;
    bool saw_meta = false;
    std::string line;
    jsonl::Object obj;
    // Every line is read strictly: a required field that is absent, or
    // any field that fails its typed read, makes the whole file corrupt
    // rather than loading as a silent zero.
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string type;
        if (!obj.parse(line) || obj.get("type", type) != Read::kOk)
            return std::nullopt;
        if (type == "meta") {
            if (obj.get("seed", data.seed) != Read::kOk ||
                obj.get("tuner_seconds", data.history.tuner_seconds) ==
                    Read::kMalformed ||
                obj.get("eval_seconds", data.history.eval_seconds) ==
                    Read::kMalformed)
                return std::nullopt;
            saw_meta = true;
        } else if (type == "obs") {
            Configuration c;
            EvalResult r;
            if (obj.get("config", c) != Read::kOk ||
                obj.get("value", r.value) != Read::kOk ||
                obj.get("feasible", r.feasible) != Read::kOk)
                return std::nullopt;
            data.history.add(std::move(c), r);
        } else if (type == "pending") {
            PendingEval p;
            if (obj.get("index", p.index) != Read::kOk ||
                obj.get("config", p.config) != Read::kOk)
                return std::nullopt;
            data.pending.push_back(std::move(p));
        } else if (type == "state") {
            if (obj.get("rng", data.sampler_state) != Read::kOk)
                return std::nullopt;
        }
    }
    if (!saw_meta)
        return std::nullopt;
    return data;
}

bool
resume_from_checkpoint(const std::string& path, AskTellTuner& tuner,
                       std::vector<PendingEval>* pending)
{
    std::optional<CheckpointData> data = load_checkpoint(path);
    if (!data)
        return false;
    // A checkpoint only resumes the run it was written by: the per-
    // evaluation RNG streams are derived from the run seed, so restoring
    // into a tuner seeded differently would silently diverge from the
    // uninterrupted history.
    if (data->seed != tuner.run_seed())
        return false;
    if (!tuner.restore(data->history, data->sampler_state))
        return false;
    if (pending)
        *pending = std::move(data->pending);
    return true;
}

}  // namespace baco
