// Zone data: the record sets an authoritative server serves for one apex.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dnscore/name.h"
#include "dnscore/record.h"
#include "dnscore/types.h"

namespace ecsdns::authoritative {

using dnscore::Name;
using dnscore::NameHash;
using dnscore::ResourceRecord;
using dnscore::RRType;

// Kinds of zone lookup result, before any ECS-dependent tailoring.
struct ZoneLookup {
  enum class Kind {
    kAnswer,      // records of the requested type at the name
    kCname,       // a CNAME exists at the name
    kDelegation,  // the name falls under a delegated child zone (NS + glue)
    kNoData,      // name exists, no records of this type
    kNxDomain,    // name does not exist in the zone
    kNotInZone,   // qname is outside this zone entirely
  };
};

// A zone lookup: pointers into the zone's own storage, valid until the zone
// is mutated. For kAnswer, `records` is the full bucket at the name, which
// may hold other types too — the caller filters by qtype while copying out.
// Answering a query therefore never clones record sets.
struct ZoneLookupRef {
  ZoneLookup::Kind kind = ZoneLookup::Kind::kNxDomain;
  const std::vector<ResourceRecord>* records = nullptr;  // bucket / NS set
  const std::vector<ResourceRecord>* glue = nullptr;     // delegation glue
  const ResourceRecord* cname = nullptr;                 // kCname only
};

class Zone {
 public:
  explicit Zone(Name apex);

  const Name& apex() const noexcept { return apex_; }

  void add(ResourceRecord rr);
  // Marks a child zone as delegated: NS records (and glue) at the cut.
  void delegate(const Name& child, const std::vector<ResourceRecord>& ns_records,
                const std::vector<ResourceRecord>& glue);

  // See ZoneLookupRef.
  ZoneLookupRef lookup_ref(const Name& qname, RRType qtype) const;

  // True if the zone contains any record at the exact name.
  bool contains(const Name& name) const;

  std::size_t record_count() const noexcept { return record_count_; }

 private:
  Name apex_;
  std::unordered_map<Name, std::vector<ResourceRecord>, NameHash> records_;
  struct Delegation {
    std::vector<ResourceRecord> ns;
    std::vector<ResourceRecord> glue;
  };
  std::unordered_map<Name, Delegation, NameHash> delegations_;
  std::size_t record_count_ = 0;
};

}  // namespace ecsdns::authoritative
