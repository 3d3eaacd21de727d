#include "src/relational/value.h"

#include "src/util/hash.h"

namespace retrust {

bool operator==(const Value& a, const Value& b) {
  if (a.rep_.index() != b.rep_.index()) return false;
  return a.rep_ == b.rep_;
}

std::string Value::ToString() const {
  switch (kind()) {
    case Kind::kNull:
      return "NULL";
    case Kind::kInt:
      return std::to_string(AsInt());
    case Kind::kDouble: {
      std::string s = std::to_string(AsDouble());
      return s;
    }
    case Kind::kString:
      return AsString();
    case Kind::kVariable: {
      VarRef v = AsVariable();
      std::string s = "?";
      s += std::to_string(v.attr);
      s += '_';
      s += std::to_string(v.index);
      return s;
    }
  }
  return "";
}

std::string Value::ToString(const std::string& attr_name) const {
  if (kind() != Kind::kVariable) return ToString();
  VarRef v = AsVariable();
  return "?" + attr_name + std::to_string(v.index);
}

size_t Value::Hash() const {
  uint64_t seed = static_cast<uint64_t>(rep_.index());
  switch (kind()) {
    case Kind::kNull:
      break;
    case Kind::kInt:
      HashCombine(&seed, static_cast<uint64_t>(AsInt()));
      break;
    case Kind::kDouble: {
      double d = AsDouble();
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      HashCombine(&seed, bits);
      break;
    }
    case Kind::kString:
      HashCombine(&seed, std::hash<std::string>{}(AsString()));
      break;
    case Kind::kVariable: {
      VarRef v = AsVariable();
      HashCombine(&seed, static_cast<uint64_t>(v.attr));
      HashCombine(&seed, static_cast<uint64_t>(v.index));
      break;
    }
  }
  return static_cast<size_t>(seed);
}

}  // namespace retrust
