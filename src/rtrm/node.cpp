#include "rtrm/node.hpp"

namespace antarex::rtrm {

Node::Node(std::string name, double base_power_w)
    : name_(std::move(name)), base_power_w_(base_power_w), rapl_(name_ + "-node") {
  ANTAREX_REQUIRE(base_power_w_ >= 0.0, "Node: negative base power");
}

Device& Node::add_device(Device d) {
  devices_.push_back(std::move(d));
  return devices_.back();
}

Device& Node::device(std::size_t i) {
  ANTAREX_REQUIRE(i < devices_.size(), "Node: device index out of range");
  return devices_[i];
}

const Device& Node::device(std::size_t i) const {
  ANTAREX_REQUIRE(i < devices_.size(), "Node: device index out of range");
  return devices_[i];
}

std::vector<u64> Node::step(double dt_s, double ambient_c) {
  std::vector<u64> finished;
  if (failed_) {
    // Powered off: no progress, no draw; the silicon cools toward ambient.
    for (auto& d : devices_) d.step_offline(dt_s, ambient_c);
    rapl_.accumulate(0.0, dt_s);
    downtime_s_ += dt_s;
    return finished;
  }
  for (auto& d : devices_) {
    if (auto job = d.step(dt_s, ambient_c)) finished.push_back(*job);
  }
  rapl_.accumulate(power_w(), dt_s);
  return finished;
}

std::vector<std::pair<u64, double>> Node::fail() {
  std::vector<std::pair<u64, double>> interrupted;
  if (failed_) return interrupted;
  failed_ = true;
  ++crashes_;
  for (auto& d : devices_)
    if (auto lost = d.interrupt()) interrupted.push_back(*lost);
  return interrupted;
}

void Node::repair() { failed_ = false; }

double Node::power_w() const {
  if (failed_) return 0.0;
  double p = base_power_w_;
  for (const auto& d : devices_) p += d.power_w();
  return p;
}

}  // namespace antarex::rtrm
