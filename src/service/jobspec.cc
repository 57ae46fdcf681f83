#include "service/jobspec.hh"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "support/args.hh"
#include "support/serialize.hh"

namespace m4ps::service
{

const char *
jobTypeName(JobType t)
{
    switch (t) {
      case JobType::Encode:    return "encode";
      case JobType::Decode:    return "decode";
      case JobType::Transcode: return "transcode";
    }
    return "unknown";
}

namespace
{

int
parseInt(const std::string &key, const std::string &v)
{
    const std::optional<int> n = m4ps::parseInt(v);
    if (!n)
        throw ManifestError("key " + key +
                            " expects a 32-bit integer, got '" + v + "'");
    return *n;
}

double
parseDouble(const std::string &key, const std::string &v)
{
    char *end = nullptr;
    const double n = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0')
        throw ManifestError("key " + key + " expects a number, got '" +
                            v + "'");
    return n;
}

bool
parseBool(const std::string &key, const std::string &v)
{
    if (v == "1" || v == "true")
        return true;
    if (v == "0" || v == "false")
        return false;
    throw ManifestError("key " + key + " expects 0/1, got '" + v + "'");
}

/** Apply one key=value to @p spec; throws ManifestError on unknowns. */
void
applyKey(JobSpec &spec, const std::string &key, const std::string &v)
{
    core::Workload &w = spec.workload;
    if (key == "type") {
        if (v == "encode")
            spec.type = JobType::Encode;
        else if (v == "decode")
            spec.type = JobType::Decode;
        else if (v == "transcode")
            spec.type = JobType::Transcode;
        else
            throw ManifestError(
                "type must be encode, decode, or transcode, got '" + v +
                "'");
    } else if (key == "width") {
        w.width = parseInt(key, v);
    } else if (key == "height") {
        w.height = parseInt(key, v);
    } else if (key == "frames") {
        w.frames = parseInt(key, v);
    } else if (key == "vos") {
        w.numVos = parseInt(key, v);
    } else if (key == "layers") {
        w.layers = parseInt(key, v);
    } else if (key == "bitrate") {
        w.targetBps = parseDouble(key, v);
    } else if (key == "search-range") {
        w.searchRange = parseInt(key, v);
    } else if (key == "search-range-b") {
        w.searchRangeB = parseInt(key, v);
    } else if (key == "frame-rate") {
        w.frameRate = parseDouble(key, v);
    } else if (key == "b-frames") {
        w.gop.bFrames = parseInt(key, v);
    } else if (key == "intra-period") {
        w.gop.intraPeriod = parseInt(key, v);
    } else if (key == "half-pel") {
        w.halfPel = parseBool(key, v);
    } else if (key == "4mv") {
        w.fourMv = parseBool(key, v);
    } else if (key == "mpeg-quant") {
        w.mpegQuant = parseBool(key, v);
    } else if (key == "seed") {
        w.seed = static_cast<uint64_t>(parseInt(key, v));
    } else if (key == "resync-interval") {
        w.resyncInterval = parseInt(key, v);
    } else if (key == "data-partition") {
        w.dataPartitioning = parseBool(key, v);
    } else if (key == "initial-qp") {
        w.initialQp = parseInt(key, v);
    } else if (key == "input") {
        spec.input = v;
    } else if (key == "out") {
        spec.output = v;
    } else if (key == "deadline-ms") {
        spec.deadlineMs = parseInt(key, v);
    } else if (key == "retries") {
        spec.retries = parseInt(key, v);
    } else if (key == "class") {
        spec.jobClass = v;
    } else if (key == "checkpoint") {
        spec.checkpoint = parseBool(key, v);
    } else if (key == "tolerant") {
        spec.tolerant = parseBool(key, v);
    } else if (key == "crash-at") {
        spec.crashAtVop = parseInt(key, v);
    } else if (key == "hang-at") {
        spec.hangAtVop = parseInt(key, v);
    } else if (key == "fec") {
        if (v != "off" && v != "hard" && v != "soft")
            throw ManifestError(
                "fec must be off, hard, or soft, got '" + v + "'");
        spec.fecMode = v;
    } else if (key == "fec-rate") {
        fec::Rate r;
        if (!fec::parseRate(v, r))
            throw ManifestError(
                "fec-rate must be 1/2, 2/3, or 3/4, got '" + v + "'");
        spec.fecRate = v;
    } else if (key == "interleave-depth") {
        spec.interleaveDepth = parseInt(key, v);
    } else if (key == "perf") {
        spec.perf = parseBool(key, v);
    } else if (key == "report-out") {
        spec.reportOut = v;
    } else {
        throw ManifestError("unknown manifest key '" + key + "'");
    }
}

/** Split "k1=v1 k2=v2 ..." and apply to @p spec. */
void
applyBody(JobSpec &spec, const std::string &body)
{
    std::istringstream is(body);
    std::string tok;
    while (is >> tok) {
        const size_t eq = tok.find('=');
        if (eq == std::string::npos || eq == 0)
            throw ManifestError("expected key=value, got '" + tok + "'");
        applyKey(spec, tok.substr(0, eq), tok.substr(eq + 1));
    }
}

} // namespace

void
JobSpec::validate() const
{
    auto reject = [this](const std::string &why) {
        throw ManifestError("job " + id + ": " + why);
    };
    if (id.empty())
        throw ManifestError("job id must not be empty");
    if (const std::string why = workload.whyInvalid(); !why.empty())
        reject(why);
    if (fecMode != "off" && fecMode != "hard" && fecMode != "soft")
        reject("fec must be off, hard, or soft");
    {
        fec::Rate r;
        if (!fec::parseRate(fecRate, r))
            reject("fec-rate must be 1/2, 2/3, or 3/4");
    }
    if (interleaveDepth < 0 || interleaveDepth > 0xffff)
        reject("interleave-depth must be in [0, 65535]");
    if (type == JobType::Decode && input.empty())
        reject("decode jobs need input=<stream file>");
    // Transcode writes the encoded stream too, so it is encode-like
    // here: without out= it would pass validation and then fail
    // permanently on every attempt at the atomic rename into "".
    if (type != JobType::Decode && output.empty())
        reject(std::string(jobTypeName(type)) +
               " jobs need out=<stream file>");
}

fec::FecConfig
JobSpec::fecConfig() const
{
    fec::FecConfig cfg;
    cfg.decision = fecMode == "soft" ? fec::Decision::Soft
                                     : fec::Decision::Hard;
    fec::parseRate(fecRate, cfg.rate); // validate() vetted fecRate
    cfg.interleaveDepth = interleaveDepth;
    return cfg;
}

std::string
JobSpec::toSpecLine() const
{
    std::ostringstream os;
    const core::Workload &w = workload;
    os << "type=" << jobTypeName(type);
    os << " width=" << w.width << " height=" << w.height;
    os << " frames=" << w.frames << " vos=" << w.numVos;
    os << " layers=" << w.layers << " bitrate=" << w.targetBps;
    os << " frame-rate=" << w.frameRate;
    os << " search-range=" << w.searchRange;
    os << " search-range-b=" << w.searchRangeB;
    os << " b-frames=" << w.gop.bFrames;
    os << " intra-period=" << w.gop.intraPeriod;
    os << " half-pel=" << (w.halfPel ? 1 : 0);
    os << " 4mv=" << (w.fourMv ? 1 : 0);
    os << " mpeg-quant=" << (w.mpegQuant ? 1 : 0);
    // The seed key is read as an int and widened, so a negative seed
    // is written back as itself for the line to parse to this seed.
    os << " seed=" << static_cast<int64_t>(w.seed);
    os << " resync-interval=" << w.resyncInterval;
    os << " data-partition=" << (w.dataPartitioning ? 1 : 0);
    os << " initial-qp=" << w.initialQp;
    if (!input.empty())
        os << " input=" << input;
    if (!output.empty())
        os << " out=" << output;
    if (deadlineMs > 0)
        os << " deadline-ms=" << deadlineMs;
    if (retries >= 0)
        os << " retries=" << retries;
    if (!jobClass.empty())
        os << " class=" << jobClass;
    os << " checkpoint=" << (checkpoint ? 1 : 0);
    os << " tolerant=" << (tolerant ? 1 : 0);
    if (crashAtVop >= 0)
        os << " crash-at=" << crashAtVop;
    if (hangAtVop >= 0)
        os << " hang-at=" << hangAtVop;
    if (fecEnabled()) {
        os << " fec=" << fecMode << " fec-rate=" << fecRate
           << " interleave-depth=" << interleaveDepth;
    }
    if (perf)
        os << " perf=1";
    if (!reportOut.empty())
        os << " report-out=" << reportOut;
    return os.str();
}

uint64_t
JobSpec::configHash() const
{
    // Only fields that shape the bitstream participate: a checkpoint
    // written before a retry with a degraded workload (different
    // search range, say) must read as stale, while supervision
    // details (deadline, retries, fault injection) must not
    // invalidate it.
    std::ostringstream os;
    const core::Workload &w = workload;
    os << jobTypeName(type) << '|' << w.width << '|' << w.height << '|'
       << w.frames << '|' << w.numVos << '|' << w.layers << '|'
       << w.targetBps << '|' << w.searchRange << '|' << w.searchRangeB
       << '|' << w.gop.bFrames << '|' << w.gop.intraPeriod << '|'
       << w.halfPel << '|' << w.fourMv << '|' << w.mpegQuant << '|'
       << w.seed << '|' << w.resyncInterval << '|'
       << w.dataPartitioning << '|' << w.initialQp << '|'
       << w.frameRate << '|' << input << '|' << fecMode << '|'
       << fecRate << '|' << interleaveDepth;
    return support::fnv1a64(os.str());
}

JobSpec
parseSpecLine(const std::string &id, const std::string &body)
{
    JobSpec spec;
    spec.id = id;
    applyBody(spec, body);
    return spec;
}

std::vector<JobSpec>
parseManifest(const std::string &text)
{
    std::vector<JobSpec> jobs;
    JobSpec defaults;
    defaults.id = "default";
    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        const size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream ls(line);
        std::string word;
        if (!(ls >> word))
            continue; // blank / comment-only line
        std::string rest;
        std::getline(ls, rest);
        try {
            if (word == "default") {
                applyBody(defaults, rest);
            } else if (word == "job") {
                std::istringstream rs(rest);
                std::string id;
                if (!(rs >> id))
                    throw ManifestError("job line needs an id");
                std::string body;
                std::getline(rs, body);
                for (const JobSpec &j : jobs) {
                    if (j.id == id)
                        throw ManifestError("duplicate job id '" + id +
                                            "'");
                }
                JobSpec spec = defaults;
                spec.id = id;
                applyBody(spec, body);
                spec.validate();
                jobs.push_back(std::move(spec));
            } else {
                throw ManifestError("expected 'default' or 'job', got '" +
                                    word + "'");
            }
        } catch (const ManifestError &e) {
            throw ManifestError("manifest line " +
                                std::to_string(lineno) + ": " + e.what());
        }
    }
    if (jobs.empty())
        throw ManifestError("manifest defines no jobs");
    return jobs;
}

std::vector<JobSpec>
loadManifest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw ManifestError("cannot open manifest '" + path + "'");
    std::ostringstream os;
    os << in.rdbuf();
    return parseManifest(os.str());
}

} // namespace m4ps::service
