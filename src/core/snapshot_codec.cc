#include "core/snapshot_codec.h"

#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace orion {
namespace codec {

std::string EncodeString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += '"';
  return out;
}

Result<std::vector<std::string>> Tokenize(const std::string& line) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < line.size()) {
    if (line[i] == ' ') {
      ++i;
      continue;
    }
    if (line[i] == '"') {
      std::string tok;
      ++i;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\' && i + 1 < line.size()) {
          ++i;
          tok += line[i] == 'n' ? '\n' : line[i];
        } else {
          tok += line[i];
        }
        ++i;
      }
      if (i >= line.size()) {
        return Status::InvalidArgument("unterminated string in snapshot");
      }
      ++i;  // closing quote
      out.push_back(std::move(tok));
      continue;
    }
    size_t start = i;
    while (i < line.size() && line[i] != ' ') {
      ++i;
    }
    out.push_back(line.substr(start, i - start));
  }
  return out;
}

namespace {

// Inner value encoding: a single string (later wrapped by EncodeString so
// it survives tokenization as one token).  The structural characters
// , { } \ and newlines inside string payloads are escaped so set splitting
// stays trivial.
std::string EscapeStringPayload(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case ',':
        out += "\\c";
        break;
      case '{':
        out += "\\o";
        break;
      case '}':
        out += "\\e";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string UnescapeStringPayload(const std::string& s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case 'c':
        out += ',';
        break;
      case 'o':
        out += '{';
        break;
      case 'e':
        out += '}';
        break;
      case 'n':
        out += '\n';
        break;
      default:
        out += s[i];
    }
  }
  return out;
}

// Tags are appended, not `"i" + body`: GCC 12 flags that operator+ with a
// false -Wrestrict (see Uid::ToString).
std::string EncodeValueInner(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "n";
    case ValueType::kInteger:
      return std::string("i").append(std::to_string(v.integer()));
    case ValueType::kReal: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "r%.17g", v.real());
      return buf;
    }
    case ValueType::kString:
      return std::string("s").append(EscapeStringPayload(v.string()));
    case ValueType::kRef:
      return std::string("#").append(std::to_string(v.ref().raw));
    case ValueType::kSet: {
      std::string out = "{";
      for (size_t i = 0; i < v.set().size(); ++i) {
        if (i > 0) {
          out += ",";
        }
        out += EncodeValueInner(v.set()[i]);
      }
      return out + "}";
    }
  }
  return "n";
}

}  // namespace

std::string EncodeValue(const Value& v) {
  return EncodeString(EncodeValueInner(v));
}

Result<Value> DecodeValue(const std::string& tok) {
  if (tok.empty()) {
    return Status::InvalidArgument("empty value token");
  }
  switch (tok[0]) {
    case 'n':
      return Value::Null();
    case 'i':
      try {
        return Value::Integer(std::stoll(tok.substr(1)));
      } catch (...) {
        return Status::InvalidArgument("bad integer value " + tok);
      }
    case 'r':
      try {
        return Value::Real(std::stod(tok.substr(1)));
      } catch (...) {
        return Status::InvalidArgument("bad real value " + tok);
      }
    case 's':
      return Value::String(UnescapeStringPayload(tok.substr(1)));
    case '#':
      try {
        return Value::Ref(UidFromRaw(std::stoull(tok.substr(1))));
      } catch (...) {
        return Status::InvalidArgument("bad ref value " + tok);
      }
    case '{': {
      if (tok.back() != '}') {
        return Status::InvalidArgument("bad set value " + tok);
      }
      std::vector<Value> elems;
      const std::string body = tok.substr(1, tok.size() - 2);
      std::string cur;
      int depth = 0;
      auto flush = [&]() -> Status {
        if (cur.empty()) {
          return Status::Ok();
        }
        ORION_ASSIGN_OR_RETURN(Value v, DecodeValue(cur));
        elems.push_back(std::move(v));
        cur.clear();
        return Status::Ok();
      };
      for (size_t i = 0; i < body.size(); ++i) {
        const char c = body[i];
        if (c == '\\' && i + 1 < body.size()) {
          cur += c;
          cur += body[++i];
        } else if (c == '{') {
          ++depth;
          cur += c;
        } else if (c == '}') {
          --depth;
          cur += c;
        } else if (c == ',' && depth == 0) {
          ORION_RETURN_IF_ERROR(flush());
        } else {
          cur += c;
        }
      }
      ORION_RETURN_IF_ERROR(flush());
      return Value::Set(std::move(elems));
    }
    default:
      return Status::InvalidArgument("bad value token " + tok);
  }
}

uint64_t ParseU64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}

int ParseInt(const std::string& s) {
  return static_cast<int>(std::strtol(s.c_str(), nullptr, 10));
}

void AppendObjectLines(std::ostream& os, const Object& obj) {
  const uint64_t raw = obj.uid().raw;
  os << "object " << raw << " " << obj.class_id() << " "
     << static_cast<int>(obj.role()) << " " << obj.generic().raw << " "
     << obj.derived_from().raw << " " << obj.created_at() << " " << obj.cc()
     << "\n";
  // Values in attribute-name order for determinism.
  std::map<std::string, const Value*> ordered;
  for (const auto& [name, value] : obj.values()) {
    ordered[name] = &value;
  }
  for (const auto& [name, value] : ordered) {
    os << "val " << raw << " " << EncodeString(name) << " "
       << EncodeValue(*value) << "\n";
  }
  for (const ReverseRef& r : obj.reverse_refs()) {
    os << "rref " << raw << " " << r.parent.raw << " " << (r.dependent ? 1 : 0)
       << " " << (r.exclusive ? 1 : 0) << " " << EncodeString(r.attribute)
       << "\n";
  }
  for (const GenericRef& g : obj.generic_refs()) {
    os << "gref " << raw << " " << g.parent.raw << " " << (g.dependent ? 1 : 0)
       << " " << (g.exclusive ? 1 : 0) << " " << g.ref_count << " "
       << EncodeString(g.attribute) << "\n";
  }
}

bool ObjectStager::Handles(const std::string& kind) {
  return kind == "object" || kind == "val" || kind == "rref" || kind == "gref";
}

Status ObjectStager::Feed(const std::vector<std::string>& tok) {
  const std::string& kind = tok[0];
  if (kind == "object" && tok.size() == 8) {
    const Uid uid{ParseU64(tok[1])};
    Object obj(uid, static_cast<ClassId>(ParseU64(tok[2])),
               static_cast<ObjectRole>(ParseInt(tok[3])), ParseU64(tok[7]));
    obj.set_generic(UidFromRaw(ParseU64(tok[4])));
    obj.set_derived_from(UidFromRaw(ParseU64(tok[5])));
    obj.set_created_at(ParseU64(tok[6]));
    objects_.insert_or_assign(uid, std::move(obj));
    return Status::Ok();
  }
  if (kind == "val" && tok.size() == 4) {
    auto it = objects_.find(UidFromRaw(ParseU64(tok[1])));
    if (it == objects_.end()) {
      return Status::InvalidArgument("val before object line");
    }
    ORION_ASSIGN_OR_RETURN(Value v, DecodeValue(tok[3]));
    it->second.Set(tok[2], std::move(v));
    return Status::Ok();
  }
  if (kind == "rref" && tok.size() == 6) {
    auto it = objects_.find(UidFromRaw(ParseU64(tok[1])));
    if (it == objects_.end()) {
      return Status::InvalidArgument("rref before object line");
    }
    it->second.AddReverseRef(ReverseRef{UidFromRaw(ParseU64(tok[2])), tok[5],
                                        ParseInt(tok[3]) != 0,
                                        ParseInt(tok[4]) != 0});
    return Status::Ok();
  }
  if (kind == "gref" && tok.size() == 7) {
    auto it = objects_.find(UidFromRaw(ParseU64(tok[1])));
    if (it == objects_.end()) {
      return Status::InvalidArgument("gref before object line");
    }
    it->second.mutable_generic_refs().push_back(
        GenericRef{UidFromRaw(ParseU64(tok[2])), tok[6], ParseInt(tok[3]) != 0,
                   ParseInt(tok[4]) != 0, ParseInt(tok[5])});
    return Status::Ok();
  }
  return Status::InvalidArgument("malformed object line");
}

}  // namespace codec
}  // namespace orion
