#include "serve/job_queue.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "telemetry/metrics.hpp"

namespace hayat::serve {

namespace {

constexpr const char* kMagic = "# hayat-job v1";

telemetry::Counter& jobsRecoveredTotal =
    telemetry::Registry::global().counter("hayat_serve_jobs_recovered_total");
telemetry::Counter& jobsRejectedTotal =
    telemetry::Registry::global().counter("hayat_serve_jobs_rejected_total");
telemetry::Counter& jobsSubmittedTotal =
    telemetry::Registry::global().counter("hayat_serve_jobs_submitted_total");
telemetry::Counter& journalSkippedTotal =
    telemetry::Registry::global().counter("hayat_serve_journal_skipped_total");

/// One key=value line; the value may not contain newlines (the error
/// field is sanitized before it gets here).
std::string line(const char* key, const std::string& value) {
  return std::string(key) + '=' + value + '\n';
}

bool readKv(std::istream& in, const char* key, std::string& value) {
  std::string text;
  if (!std::getline(in, text)) return false;
  const std::string prefix = std::string(key) + '=';
  if (text.compare(0, prefix.size(), prefix) != 0) return false;
  value = text.substr(prefix.size());
  return true;
}

std::string sanitizeLine(std::string text) {
  for (char& c : text)
    if (c == '\n' || c == '\r') c = ' ';
  return text;
}

}  // namespace

const char* jobStateName(JobState state) {
  switch (state) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Completed: return "completed";
    case JobState::Cancelled: return "cancelled";
    case JobState::Failed: return "failed";
  }
  return "unknown";
}

std::optional<JobState> jobStateFromName(const std::string& name) {
  for (const JobState s :
       {JobState::Queued, JobState::Running, JobState::Completed,
        JobState::Cancelled, JobState::Failed})
    if (name == jobStateName(s)) return s;
  return std::nullopt;
}

std::string encodeJobRecord(const JobRecord& job) {
  std::ostringstream out;
  char hash[20];
  std::snprintf(hash, sizeof(hash), "%016" PRIx64, job.specHash);
  out << kMagic << '\n'
      << line("id", job.id) << line("seq", std::to_string(job.seq))
      << line("client", sanitizeLine(job.client))
      << line("priority", std::to_string(job.priority))
      << line("state", jobStateName(job.state))
      << line("name", sanitizeLine(job.specName)) << line("hash", hash)
      << line("tasks", std::to_string(job.taskCount))
      << line("error", sanitizeLine(job.error))
      << line("spec", std::to_string(job.specText.size())) << job.specText;
  return out.str();
}

bool decodeJobRecord(const std::string& bytes, JobRecord& out) {
  std::istringstream in(bytes);
  std::string text;
  if (!std::getline(in, text) || text != kMagic) return false;
  std::string seq, priority, state, hash, tasks, specLen;
  if (!readKv(in, "id", out.id) || !readKv(in, "seq", seq) ||
      !readKv(in, "client", out.client) ||
      !readKv(in, "priority", priority) || !readKv(in, "state", state) ||
      !readKv(in, "name", out.specName) || !readKv(in, "hash", hash) ||
      !readKv(in, "tasks", tasks) || !readKv(in, "error", out.error) ||
      !readKv(in, "spec", specLen))
    return false;
  try {
    out.seq = std::stoull(seq);
    out.priority = std::stoi(priority);
    out.specHash = std::stoull(hash, nullptr, 16);
    out.taskCount = std::stoi(tasks);
    const std::size_t len = std::stoull(specLen);
    const std::streampos pos = in.tellg();
    if (pos < 0) return false;
    const auto offset = static_cast<std::size_t>(pos);
    if (bytes.size() - offset != len) return false;
    out.specText = bytes.substr(offset, len);
  } catch (const std::exception&) {
    return false;
  }
  const auto parsed = jobStateFromName(state);
  if (!parsed || out.id.empty()) return false;
  out.state = *parsed;
  return true;
}

JobQueue::JobQueue(std::string dir, Limits limits)
    : dir_(std::move(dir)), limits_(limits) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);

  // Replay: one file per job, any order on disk; sort by seq afterwards
  // so queuedJobs() preserves submission order within a priority level.
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file() ||
        entry.path().extension() != ".job")
      continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    JobRecord job;
    if (!in || !decodeJobRecord(bytes.str(), job)) {
      std::fprintf(stderr, "[serve] skipping unreadable job file %s\n",
                   entry.path().string().c_str());
      journalSkippedTotal.add();
      continue;
    }
    // The daemon that was running this job is gone; its tasks are
    // deterministic, so re-queue and rerun.
    if (job.state == JobState::Running) {
      job.state = JobState::Queued;
      jobsRecoveredTotal.add();
    }
    nextSeq_ = std::max(nextSeq_, job.seq + 1);
    jobs_.push_back(std::move(job));
  }
  std::sort(jobs_.begin(), jobs_.end(), [](const JobRecord& a,
                                            const JobRecord& b) {
    return a.seq < b.seq;
  });
  // Re-journal recovered jobs so a crash during replay does not forget
  // the demotion.
  std::lock_guard<std::mutex> lock(mutex_);
  for (const JobRecord& job : jobs_)
    if (job.state == JobState::Queued) persistLocked(job);
}

void JobQueue::persistLocked(const JobRecord& job) {
  const std::string path = dir_ + "/" + job.id + ".job";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "[serve] cannot journal %s\n", path.c_str());
      return;
    }
    out << encodeJobRecord(job);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::fprintf(stderr, "[serve] cannot commit journal %s: %s\n",
                 path.c_str(), ec.message().c_str());
    std::filesystem::remove(tmp, ec);
  }
}

JobQueue::Admission JobQueue::submit(JobRecord& job) {
  std::lock_guard<std::mutex> lock(mutex_);
  int active = 0;
  int clientActive = 0;
  for (const JobRecord& j : jobs_) {
    if (j.state != JobState::Queued && j.state != JobState::Running)
      continue;
    ++active;
    if (j.client == job.client) ++clientActive;
  }
  if (active >= limits_.maxQueueDepth) {
    jobsRejectedTotal.add();
    return Admission::QueueFull;
  }
  if (clientActive >= limits_.maxClientActive) {
    jobsRejectedTotal.add();
    return Admission::ClientLimit;
  }
  job.seq = nextSeq_++;
  job.id = "j" + std::to_string(job.seq);
  job.state = JobState::Queued;
  jobs_.push_back(job);
  persistLocked(job);
  jobsSubmittedTotal.add();
  return Admission::Accepted;
}

std::optional<JobRecord> JobQueue::get(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const JobRecord& j : jobs_)
    if (j.id == id) return j;
  return std::nullopt;
}

std::vector<JobRecord> JobQueue::list() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return jobs_;
}

bool JobQueue::setState(const std::string& id, JobState state,
                        const std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (JobRecord& j : jobs_) {
    if (j.id != id) continue;
    j.state = state;
    if (state == JobState::Failed) j.error = error;
    persistLocked(j);
    return true;
  }
  return false;
}

bool JobQueue::remove(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
    if (it->id != id) continue;
    if (it->state == JobState::Queued || it->state == JobState::Running)
      return false;
    std::error_code ec;
    std::filesystem::remove(dir_ + "/" + it->id + ".job", ec);
    jobs_.erase(it);
    return true;
  }
  return false;
}

std::vector<JobRecord> JobQueue::queuedJobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobRecord> out;
  for (const JobRecord& j : jobs_)
    if (j.state == JobState::Queued) out.push_back(j);
  std::stable_sort(out.begin(), out.end(),
                   [](const JobRecord& a, const JobRecord& b) {
                     if (a.priority != b.priority)
                       return a.priority > b.priority;
                     return a.seq < b.seq;
                   });
  return out;
}

int JobQueue::activeCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int active = 0;
  for (const JobRecord& j : jobs_)
    if (j.state == JobState::Queued || j.state == JobState::Running)
      ++active;
  return active;
}

}  // namespace hayat::serve
