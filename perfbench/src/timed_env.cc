#include "timed_env.h"

#include "util.h"

namespace perfbench {

using railgun::Slice;
using railgun::Status;

namespace {

bool IsWal(const std::string& path) {
  return path.size() > 4 && path.compare(path.size() - 4, 4, ".log") == 0;
}

class TimedWritableFile : public railgun::WritableFile {
 public:
  TimedWritableFile(std::unique_ptr<railgun::WritableFile> inner,
                    TimedEnv* env, bool wal)
      : inner_(std::move(inner)), env_(env), wal_(wal) {}

  Status Append(const Slice& data) override {
    env_->OnAppend(wal_, data.size());
    return inner_->Append(data);
  }
  Status Flush() override { return inner_->Flush(); }
  Status Sync() override {
    const double start = NowUs();
    Status s = inner_->Sync();
    env_->OnSync(NowUs() - start);
    return s;
  }
  Status Close() override { return inner_->Close(); }
  uint64_t Size() const override { return inner_->Size(); }

 private:
  std::unique_ptr<railgun::WritableFile> inner_;
  TimedEnv* env_;
  bool wal_;
};

}  // namespace

TimedEnv::Counters TimedEnv::counters() const {
  Counters c;
  c.write_bytes = write_bytes_.load();
  c.wal_bytes = wal_bytes_.load();
  std::lock_guard<std::mutex> lock(mu_);
  c.sync_us = sync_us_;
  return c;
}

void TimedEnv::OnAppend(bool wal, size_t bytes) {
  write_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (wal) wal_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

void TimedEnv::OnSync(double us) {
  std::lock_guard<std::mutex> lock(mu_);
  sync_us_.push_back(us);
}

Status TimedEnv::NewWritableFile(
    const std::string& path, std::unique_ptr<railgun::WritableFile>* file) {
  std::unique_ptr<railgun::WritableFile> inner;
  RAILGUN_RETURN_IF_ERROR(inner_->NewWritableFile(path, &inner));
  file->reset(new TimedWritableFile(std::move(inner), this, IsWal(path)));
  return Status::OK();
}

Status TimedEnv::NewAppendableFile(
    const std::string& path, std::unique_ptr<railgun::WritableFile>* file) {
  std::unique_ptr<railgun::WritableFile> inner;
  RAILGUN_RETURN_IF_ERROR(inner_->NewAppendableFile(path, &inner));
  file->reset(new TimedWritableFile(std::move(inner), this, IsWal(path)));
  return Status::OK();
}

Status TimedEnv::NewRandomAccessFile(
    const std::string& path, std::unique_ptr<railgun::RandomAccessFile>* file) {
  return inner_->NewRandomAccessFile(path, file);
}

Status TimedEnv::NewSequentialFile(
    const std::string& path, std::unique_ptr<railgun::SequentialFile>* file) {
  return inner_->NewSequentialFile(path, file);
}

bool TimedEnv::FileExists(const std::string& path) {
  return inner_->FileExists(path);
}

Status TimedEnv::GetFileSize(const std::string& path, uint64_t* size) {
  return inner_->GetFileSize(path, size);
}

Status TimedEnv::RemoveFile(const std::string& path) {
  return inner_->RemoveFile(path);
}

Status TimedEnv::RenameFile(const std::string& from, const std::string& to) {
  return inner_->RenameFile(from, to);
}

Status TimedEnv::CreateDir(const std::string& path) {
  return inner_->CreateDir(path);
}

Status TimedEnv::RemoveDirRecursive(const std::string& path) {
  return inner_->RemoveDirRecursive(path);
}

Status TimedEnv::ListDir(const std::string& path,
                         std::vector<std::string>* children) {
  return inner_->ListDir(path, children);
}

Status TimedEnv::CopyFile(const std::string& from, const std::string& to) {
  return inner_->CopyFile(from, to);
}

}  // namespace perfbench
