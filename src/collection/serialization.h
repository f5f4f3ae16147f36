#pragma once

/// \file serialization.h
/// Persistence for set collections.
///
/// Two formats:
///  * a compact binary format (magic + CSR arrays) for benchmark caching, and
///  * a line-oriented text format (one set per line, whitespace-separated
///    entity names) matching how web-table corpora are usually distributed.

#include <cstddef>
#include <string>

#include "collection/set_collection.h"
#include "util/status.h"

namespace setdisc {

/// Writes `collection` to `path` in the binary format. Labels and the name
/// dictionary are not persisted (ids only).
Status SaveCollectionBinary(const SetCollection& collection,
                            const std::string& path);

/// Reads a collection previously written by SaveCollectionBinary.
Status LoadCollectionBinary(const std::string& path, SetCollection* out);

/// Writes one set per line using entity names (or "e<id>").
Status SaveCollectionText(const SetCollection& collection,
                          const std::string& path);

/// Bytes LoadCollectionText reads per refill; a line longer than this grows
/// its buffer.
inline constexpr size_t kTextReadBufferBytes = size_t{1} << 20;

/// Reads a text collection. The format, byte by byte:
///  * lines end at '\n'; a last line without one still counts;
///  * a line whose first byte is '#' is a comment (a '#' anywhere else,
///    even after leading whitespace, is part of a name);
///  * names are separated by runs of the C locale's six whitespace bytes
///    (space, '\t', '\n', '\v', '\f', '\r'), so CRLF files load like LF
///    files; every other byte, NUL and bytes >= 0x80 included, belongs to a
///    name and is compared as is;
///  * each line with at least one name is a set. Repeated names within a
///    line and repeated sets collapse. Entity ids follow each name's first
///    appearance in the file.
/// The file streams through a kTextReadBufferBytes buffer and is never held
/// in memory whole. A file that cannot be opened or read (a directory, an
/// I/O error part-way through) is Status::IoError, never a partial
/// collection.
Status LoadCollectionText(const std::string& path, SetCollection* out);

}  // namespace setdisc
