// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Vfs: the file-system seam of the durability subsystem. Everything the
// WAL and the snapshot store do to disk goes through this interface, so
// the crash-injection harness (storage::FaultFs) can interpose on every
// byte and every durability barrier. Two implementations:
//  * RealVfs  — POSIX files (pread/pwrite/fsync/rename); what deployments
//    use. Rename is the atomic-replace primitive of the snapshot protocol.
//  * FaultFs  — an in-memory file system that tracks durable vs volatile
//    bytes and can crash at an exact sync point (storage/fault_fs.h).
//
// Durability model: bytes written through WriteAt/Append/Truncate are
// VOLATILE until the file is Sync()ed — a crash discards them. Sync() and
// Rename() are the only durability barriers ("sync points"): Sync makes a
// file's bytes durable, Rename atomically (and durably) replaces the
// destination name. This is exactly the contract crash recovery is proven
// against.

#ifndef SAE_STORAGE_VFS_H_
#define SAE_STORAGE_VFS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace sae::storage {

/// A random-access file handle. Not thread-safe; callers serialize.
class VfsFile {
 public:
  virtual ~VfsFile() = default;

  /// Reads up to `n` bytes at `offset`; returns the count actually read
  /// (short at EOF, 0 past it).
  virtual Result<size_t> ReadAt(uint64_t offset, uint8_t* buf,
                                size_t n) const = 0;

  /// Writes `n` bytes at `offset`, extending the file if needed. The bytes
  /// are volatile until Sync().
  virtual Status WriteAt(uint64_t offset, const uint8_t* buf, size_t n) = 0;

  /// Appends at the current end of file (volatile until Sync()).
  virtual Status Append(const uint8_t* buf, size_t n) = 0;

  virtual Result<uint64_t> Size() const = 0;

  /// Cuts the file to `size` bytes (volatile until Sync()).
  virtual Status Truncate(uint64_t size) = 0;

  /// Durability barrier: makes every previously written byte of this file
  /// durable. One sync point.
  virtual Status Sync() = 0;
};

/// A minimal file-system namespace: open/exists/rename/remove/list.
class Vfs {
 public:
  virtual ~Vfs() = default;

  /// Opens `path` read-write. With `create`, an absent file is created
  /// (empty, volatile until synced); without, absence is kNotFound.
  virtual Result<std::unique_ptr<VfsFile>> Open(const std::string& path,
                                                bool create) = 0;

  virtual bool Exists(const std::string& path) const = 0;

  /// Atomically replaces `to` with `from` and makes the name change
  /// durable. One sync point. The CONTENT of `from` is only durable to the
  /// extent it was synced — renaming an unsynced file can surface a torn
  /// destination after a crash, exactly as on a real file system, so the
  /// snapshot protocol always syncs the temp file first.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  /// Unlinks a file; missing files are OK (idempotent garbage collection).
  virtual Status Remove(const std::string& path) = 0;

  /// Names (not paths) of the files directly inside `dir`, unsorted.
  /// A missing directory lists empty.
  virtual Result<std::vector<std::string>> List(
      const std::string& dir) const = 0;

  /// Creates a directory (parents must exist); an existing one is OK.
  virtual Status MkDir(const std::string& path) = 0;

  /// The process-wide POSIX-backed instance.
  static Vfs* Default();
};

}  // namespace sae::storage

#endif  // SAE_STORAGE_VFS_H_
